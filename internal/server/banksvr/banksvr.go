// Package banksvr implements the Amoeba bank server (§3.6): the basis
// for resource control and accounting. It manages "bank account"
// objects holding virtual money in multiple, possibly convertible,
// possibly inconvertible currencies; the principal operation transfers
// virtual money between accounts. Servers charge for resources (the
// file server charging x dollars per kiloblock implements quotas), and
// clients may pre-pay a server "to eliminate the overhead of going
// back to the bank on each request".
//
// Rights on account capabilities: RightRead shows balances, RightWrite
// withdraws (transfers out), RightCreate deposits (transfers in). A
// deposit-only capability (RightCreate alone) is what a server
// publishes so anyone can pay it.
package banksvr

import (
	"context"

	"encoding/binary"
	"fmt"
	"sort"
	"sync"

	"amoeba/internal/cap"
	"amoeba/internal/crypto"
	"amoeba/internal/fbox"
	"amoeba/internal/rpc"
	"amoeba/internal/store"
	"amoeba/internal/svc"
	"amoeba/internal/wal"
)

// Operation codes.
const (
	// OpCreateAccount creates an account: data = curLen(1) ∥ currency ∥
	// amount(8) initial grant. The initial grant is bank policy: the
	// production configuration (MintingAllowed=false) only honours it
	// from the treasury's own balance. Returns the account capability.
	OpCreateAccount uint16 = 0x0600 + iota
	// OpBalance returns the account's balances:
	// count(2) ∥ count × (curLen(1) ∥ currency ∥ amount(8)).
	// Needs RightRead.
	OpBalance
	// OpTransfer moves money: cap = source account (needs RightWrite);
	// data = destination capability(16) ∥ curLen(1) ∥ currency ∥
	// amount(8). The destination capability needs RightCreate.
	OpTransfer
	// OpConvert exchanges currency within one account: data =
	// fromLen(1) ∥ from ∥ toLen(1) ∥ to ∥ amount(8). Uses the bank's
	// exchange-rate table; inconvertible pairs fail. Needs RightWrite.
	OpConvert
	// OpDestroyAccount destroys an account; any remaining balance
	// returns to the treasury. Needs RightDestroy.
	OpDestroyAccount
)

// MaxCurrency bounds a currency name.
const MaxCurrency = 32

// Rate is an exchange rate between two currencies: Amount in the
// destination currency per unit of the source currency, as a rational
// (Num/Den) so the arithmetic stays exact.
type Rate struct {
	Num uint64
	Den uint64
}

// Config sets bank policy.
type Config struct {
	// Treasury is the initial money supply, per currency, owned by the
	// bank itself and granted to newly created accounts.
	Treasury map[string]int64
	// Rates maps "from/to" currency pairs to exchange rates. Pairs not
	// present are inconvertible (the paper allows both kinds).
	Rates map[[2]string]Rate
	// MintingAllowed, if true, lets CreateAccount grant money that is
	// not backed by the treasury (convenient for examples; off in
	// quota-enforcing configurations).
	MintingAllowed bool
}

type account struct {
	mu sync.Mutex
	// dead marks an account destroyed between a map lookup and the
	// lock acquisition; operations that find it fail as if the lookup
	// had missed.
	dead     bool
	balances map[string]int64
}

// Server is a bank server instance on the service kernel. Accounts
// live in a lock-striped map with a lock per account, so transfers
// between disjoint account pairs run in parallel; a transfer locks its
// two accounts in object-number order (no deadlock), and only the
// treasury keeps a global lock — it is touched only by account
// creation and destruction.
//
// Money is the invariant a crash must not bend: built with NewDurable,
// every transfer, conversion, creation and destruction is written
// ahead to a log before its reply, and a restarted bank replays to
// exactly the balances its clients saw acknowledged — conservation
// holds across the crash.
type Server struct {
	*svc.Kernel
	table *cap.Table
	cfg   Config

	treasuryMu sync.Mutex
	treasury   map[string]int64

	accounts *store.Map[*account]
}

// New builds a volatile bank server. Call Start to begin serving.
func New(fb *fbox.FBox, scheme cap.Scheme, src crypto.Source, cfg Config) *Server {
	s, err := NewDurable(fb, scheme, src, cfg, nil, 0)
	if err != nil { // unreachable: no log means no recovery to fail
		panic(err)
	}
	return s
}

// NewDurable builds a bank server whose mutations are written ahead to
// log (nil for a volatile server), recovering any state a previous
// incarnation logged before it returns. g pins the secret get-port so
// the restarted bank reappears at the put-port every outstanding
// account capability names (zero draws a fresh one).
func NewDurable(fb *fbox.FBox, scheme cap.Scheme, src crypto.Source, cfg Config, log *wal.Log, g cap.Port) (*Server, error) {
	treasury := make(map[string]int64, len(cfg.Treasury))
	for c, v := range cfg.Treasury {
		treasury[c] = v
	}
	s := &Server{
		cfg:      cfg,
		treasury: treasury,
		accounts: store.New[*account](0),
	}
	s.Kernel = svc.NewWithConfig(fb, scheme, svc.Config{
		Source:        src,
		Port:          g,
		Log:           log,
		Snapshot:      s.snapshot,
		Restore:       s.restoreSnapshot,
		ExtractObject: s.extractObject,
		InstallObject: s.installObject,
		RemoveObject:  s.removeObject,
	})
	s.table = s.Table()
	s.Handle(OpCreateAccount, s.createAccount)
	s.Handle(OpBalance, s.balance)
	s.Handle(OpTransfer, s.transfer)
	s.Handle(OpConvert, s.convert)
	s.Handle(OpDestroyAccount, s.destroyAccount)
	if err := s.Recover(s.apply); err != nil {
		return nil, fmt.Errorf("banksvr: recovering: %w", err)
	}
	return s, nil
}

// ReplayFn exposes the redo-record applier for a hot-standby receiver
// (repl.NewReceiver): the standby applies the primary's shipped records
// through exactly the code path crash recovery replays them through.
func (s *Server) ReplayFn() func(rec []byte) error { return s.apply }

// Redo-record tags (first byte; svc.RecKernel is reserved).
const (
	recCreate   byte = 0x01 // obj(4) secret(8) curLen(1) cur amount(8)
	recTransfer byte = 0x02 // from(4) to(4) curLen(1) cur amount(8)
	recConvert  byte = 0x03 // obj(4) fromLen(1) from toLen(1) to amount(8) out(8)
	recDestroy  byte = 0x04 // obj(4)
)

func appendU64(rec []byte, v uint64) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], v)
	return append(rec, b[:]...)
}

func recCreateAccount(obj uint32, secret uint64, cur string, amount int64) []byte {
	rec := make([]byte, 5, 22+len(cur))
	rec[0] = recCreate
	binary.BigEndian.PutUint32(rec[1:], obj)
	rec = appendU64(rec, secret)
	rec = appendCurrency(rec, cur)
	return appendU64(rec, uint64(amount))
}

func recTransferMoney(from, to uint32, cur string, amount int64) []byte {
	rec := make([]byte, 9, 18+len(cur))
	rec[0] = recTransfer
	binary.BigEndian.PutUint32(rec[1:], from)
	binary.BigEndian.PutUint32(rec[5:], to)
	rec = appendCurrency(rec, cur)
	return appendU64(rec, uint64(amount))
}

// recConvertMoney logs the computed output amount too, so replay does
// not depend on the (config-supplied, possibly changed) rate table.
func recConvertMoney(obj uint32, from, to string, amount, out int64) []byte {
	rec := make([]byte, 5, 23+len(from)+len(to))
	rec[0] = recConvert
	binary.BigEndian.PutUint32(rec[1:], obj)
	rec = appendCurrency(rec, from)
	rec = appendCurrency(rec, to)
	rec = appendU64(rec, uint64(amount))
	return appendU64(rec, uint64(out))
}

func recDestroyAccount(obj uint32) []byte {
	rec := make([]byte, 5)
	rec[0] = recDestroy
	binary.BigEndian.PutUint32(rec[1:], obj)
	return rec
}

// apply replays one redo record. The log is trusted (every record was
// validated before it was written) and its order is the live commit
// order, so replay applies mutations without re-checking funds.
func (s *Server) apply(rec []byte) error {
	if len(rec) < 5 {
		return fmt.Errorf("banksvr: short record (%d bytes)", len(rec))
	}
	obj := binary.BigEndian.Uint32(rec[1:])
	switch rec[0] {
	case recCreate:
		if len(rec) < 13 {
			return fmt.Errorf("banksvr: malformed create record")
		}
		secret := binary.BigEndian.Uint64(rec[5:])
		cur, rest, err := takeCurrency(rec[13:])
		if err != nil || len(rest) != 8 {
			return fmt.Errorf("banksvr: malformed create record")
		}
		amount := int64(binary.BigEndian.Uint64(rest))
		if !s.cfg.MintingAllowed {
			s.treasury[cur] -= amount // it was debited live, re-debit
		}
		s.table.InstallSecret(obj, secret)
		acct := &account{balances: make(map[string]int64)}
		if amount > 0 {
			acct.balances[cur] = amount
		}
		s.accounts.Put(obj, acct)
	case recTransfer:
		if len(rec) < 9 {
			return fmt.Errorf("banksvr: malformed transfer record")
		}
		to := binary.BigEndian.Uint32(rec[5:])
		cur, rest, err := takeCurrency(rec[9:])
		if err != nil || len(rest) != 8 {
			return fmt.Errorf("banksvr: malformed transfer record")
		}
		amount := int64(binary.BigEndian.Uint64(rest))
		from, ok := s.accounts.Get(obj)
		if !ok {
			return fmt.Errorf("banksvr: transfer record names unknown account %d", obj)
		}
		dest, ok := s.accounts.Get(to)
		if !ok {
			return fmt.Errorf("banksvr: transfer record names unknown account %d", to)
		}
		from.balances[cur] -= amount
		dest.balances[cur] += amount
	case recConvert:
		from, rest, err := takeCurrency(rec[5:])
		if err != nil {
			return fmt.Errorf("banksvr: malformed convert record")
		}
		to, rest, err := takeCurrency(rest)
		if err != nil || len(rest) != 16 {
			return fmt.Errorf("banksvr: malformed convert record")
		}
		amount := int64(binary.BigEndian.Uint64(rest))
		out := int64(binary.BigEndian.Uint64(rest[8:]))
		a, ok := s.accounts.Get(obj)
		if !ok {
			return fmt.Errorf("banksvr: convert record names unknown account %d", obj)
		}
		a.balances[from] -= amount
		a.balances[to] += out
	case recDestroy:
		a, ok := s.accounts.Delete(obj)
		if ok {
			for c, v := range a.balances {
				s.treasury[c] += v
			}
		}
		_ = s.table.DestroyObject(obj)
	default:
		return fmt.Errorf("banksvr: unknown record tag %#02x", rec[0])
	}
	return nil
}

// snapshot serializes the treasury and every account for a checkpoint.
// It runs quiesced, so the cut conserves money exactly.
func (s *Server) snapshot() []byte {
	out := make([]byte, 4)
	binary.BigEndian.PutUint32(out, uint32(len(s.treasury)))
	for c, v := range s.treasury {
		out = appendCurrency(out, c)
		out = appendU64(out, uint64(v))
	}
	at := len(out)
	out = append(out, 0, 0, 0, 0)
	count := 0
	s.accounts.Range(func(obj uint32, a *account) bool {
		count++
		var hdr [6]byte
		binary.BigEndian.PutUint32(hdr[0:], obj)
		binary.BigEndian.PutUint16(hdr[4:], uint16(len(a.balances)))
		out = append(out, hdr[:]...)
		for c, v := range a.balances {
			out = appendCurrency(out, c)
			out = appendU64(out, uint64(v))
		}
		return true
	})
	binary.BigEndian.PutUint32(out[at:], uint32(count))
	return out
}

// extractObject pulls one account out of the server for live
// migration: nbal(2) ∥ nbal × (currency ∥ amount(8)) — the same
// per-account body the snapshot writes. The dead flag is set under the
// account lock, so a transfer racing the migration fails cleanly
// instead of mutating state the destination already owns. The treasury
// stays put: it is this instance's money supply, not the account's
// (cross-shard transfers settle against the destination shard's
// treasury — a documented non-goal to unify).
func (s *Server) extractObject(obj uint32) ([]byte, error) {
	a, ok := s.accounts.Get(obj)
	if !ok {
		return nil, fmt.Errorf("banksvr: no account %d", obj)
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.dead {
		return nil, fmt.Errorf("banksvr: account %d destroyed", obj)
	}
	state := make([]byte, 2, 2+len(a.balances)*12)
	binary.BigEndian.PutUint16(state, uint16(len(a.balances)))
	for c, v := range a.balances {
		state = appendCurrency(state, c)
		state = appendU64(state, uint64(v))
	}
	a.dead = true
	a.balances = nil
	s.accounts.Delete(obj)
	return state, nil
}

// installObject installs a migrated-in account.
func (s *Server) installObject(obj uint32, state []byte) error {
	if len(state) < 2 {
		return fmt.Errorf("banksvr: truncated migrated account %d", obj)
	}
	nbal := binary.BigEndian.Uint16(state)
	rest := state[2:]
	a := &account{balances: make(map[string]int64, nbal)}
	for i := uint16(0); i < nbal; i++ {
		cur, r, err := takeCurrency(rest)
		if err != nil || len(r) < 8 {
			return fmt.Errorf("banksvr: truncated migrated account %d", obj)
		}
		a.balances[cur] = int64(binary.BigEndian.Uint64(r))
		rest = r[8:]
	}
	s.accounts.Put(obj, a)
	return nil
}

// removeObject drops an account whose migrate-out committed (replay
// path); absence is fine — the in-memory extract already removed it.
func (s *Server) removeObject(obj uint32) {
	a, ok := s.accounts.Get(obj)
	if !ok {
		return
	}
	a.mu.Lock()
	a.dead = true
	a.balances = nil
	a.mu.Unlock()
	s.accounts.Delete(obj)
}

// restoreSnapshot replaces the treasury and account state.
func (s *Server) restoreSnapshot(snap []byte) error {
	bad := fmt.Errorf("banksvr: truncated snapshot")
	if len(snap) < 4 {
		return bad
	}
	ncur := binary.BigEndian.Uint32(snap)
	rest := snap[4:]
	treasury := make(map[string]int64, ncur)
	for i := uint32(0); i < ncur; i++ {
		cur, r, err := takeCurrency(rest)
		if err != nil || len(r) < 8 {
			return bad
		}
		treasury[cur] = int64(binary.BigEndian.Uint64(r))
		rest = r[8:]
	}
	if len(rest) < 4 {
		return bad
	}
	naccts := binary.BigEndian.Uint32(rest)
	rest = rest[4:]
	accounts := store.New[*account](0)
	for i := uint32(0); i < naccts; i++ {
		if len(rest) < 6 {
			return bad
		}
		obj := binary.BigEndian.Uint32(rest)
		nbal := binary.BigEndian.Uint16(rest[4:])
		rest = rest[6:]
		a := &account{balances: make(map[string]int64, nbal)}
		for j := uint16(0); j < nbal; j++ {
			cur, r, err := takeCurrency(rest)
			if err != nil || len(r) < 8 {
				return bad
			}
			a.balances[cur] = int64(binary.BigEndian.Uint64(r))
			rest = r[8:]
		}
		accounts.Put(obj, a)
	}
	s.treasury = treasury
	s.accounts = accounts
	return nil
}

func validCurrency(c string) error {
	if c == "" || len(c) > MaxCurrency {
		return fmt.Errorf("banksvr: bad currency %q", c)
	}
	return nil
}

func (s *Server) createAccount(_ context.Context, _ rpc.Meta, req rpc.Request) rpc.Reply {
	currency, rest, err := takeCurrency(req.Data)
	if err != nil {
		return rpc.ErrReply(rpc.StatusBadRequest, err.Error())
	}
	if len(rest) != 8 {
		return rpc.ErrReply(rpc.StatusBadRequest, "create account wants currency ∥ amount(8)")
	}
	amount := int64(binary.BigEndian.Uint64(rest))
	if amount < 0 {
		return rpc.ErrReply(rpc.StatusBadRequest, "negative initial grant")
	}
	if !s.cfg.MintingAllowed {
		s.treasuryMu.Lock()
		if s.treasury[currency] < amount {
			have := s.treasury[currency]
			s.treasuryMu.Unlock()
			return rpc.ErrReply(rpc.StatusServerError,
				fmt.Sprintf("treasury has %d %s, grant wants %d", have, currency, amount))
		}
		s.treasury[currency] -= amount
		s.treasuryMu.Unlock()
	}
	refund := func() {
		if !s.cfg.MintingAllowed {
			s.treasuryMu.Lock()
			s.treasury[currency] += amount // roll the debit back
			s.treasuryMu.Unlock()
		}
	}
	c, secret, err := s.table.CreateRecorded()
	if err != nil {
		refund()
		return rpc.ErrReplyFromErr(err)
	}
	acct := &account{balances: make(map[string]int64)}
	if amount > 0 {
		acct.balances[currency] = amount
	}
	s.accounts.Put(c.Object, acct)
	t, err := s.Append(recCreateAccount(c.Object, secret, currency, amount))
	if err != nil {
		// Unlogged: roll the whole creation back.
		s.accounts.Delete(c.Object)
		_ = s.table.DestroyObject(c.Object)
		refund()
		return rpc.ErrReplyFromErr(err)
	}
	if err := t.Wait(); err != nil {
		return rpc.ErrReplyFromErr(err)
	}
	return rpc.CapReply(c)
}

// acct fetches a live account. The caller locks it before use and
// must re-check the dead flag under the lock.
func (s *Server) acct(obj uint32) (*account, error) {
	a, ok := s.accounts.Get(obj)
	if !ok {
		return nil, fmt.Errorf("banksvr: object %d: %w", obj, cap.ErrNoSuchObject)
	}
	return a, nil
}

// errDead is the lookup-raced-with-destroy error.
func errDead(obj uint32) rpc.Reply {
	return rpc.ErrReplyFromErr(fmt.Errorf("banksvr: object %d: %w", obj, cap.ErrNoSuchObject))
}

func (s *Server) balance(_ context.Context, _ rpc.Meta, req rpc.Request) rpc.Reply {
	if _, err := s.table.Demand(req.Cap, cap.RightRead); err != nil {
		return rpc.ErrReplyFromErr(err)
	}
	a, err := s.acct(req.Cap.Object)
	if err != nil {
		return rpc.ErrReplyFromErr(err)
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.dead {
		return errDead(req.Cap.Object)
	}
	currencies := make([]string, 0, len(a.balances))
	for c := range a.balances {
		currencies = append(currencies, c)
	}
	sort.Strings(currencies)
	out := make([]byte, 2)
	binary.BigEndian.PutUint16(out, uint16(len(currencies)))
	for _, c := range currencies {
		out = append(out, byte(len(c)))
		out = append(out, c...)
		var amt [8]byte
		binary.BigEndian.PutUint64(amt[:], uint64(a.balances[c]))
		out = append(out, amt[:]...)
	}
	return rpc.OkReply(out)
}

func (s *Server) transfer(_ context.Context, _ rpc.Meta, req rpc.Request) rpc.Reply {
	// Withdrawal needs RightWrite on the source.
	if _, err := s.table.Demand(req.Cap, cap.RightWrite); err != nil {
		return rpc.ErrReplyFromErr(err)
	}
	if len(req.Data) < cap.Size+1 {
		return rpc.ErrReply(rpc.StatusBadRequest, "transfer wants dest cap(16) ∥ currency ∥ amount(8)")
	}
	dest, err := cap.Decode(req.Data[:cap.Size])
	if err != nil {
		return rpc.ErrReply(rpc.StatusBadRequest, err.Error())
	}
	currency, rest, err := takeCurrency(req.Data[cap.Size:])
	if err != nil {
		return rpc.ErrReply(rpc.StatusBadRequest, err.Error())
	}
	if len(rest) != 8 {
		return rpc.ErrReply(rpc.StatusBadRequest, "transfer wants amount(8)")
	}
	amount := int64(binary.BigEndian.Uint64(rest))
	if amount <= 0 {
		return rpc.ErrReply(rpc.StatusBadRequest, "transfer amount must be positive")
	}
	// Deposit needs RightCreate on the destination. The destination
	// must be an account at this bank.
	if _, err := s.table.Demand(dest, cap.RightCreate); err != nil {
		return rpc.ErrReplyFromErr(fmt.Errorf("destination: %w", err))
	}
	if dest.Object == req.Cap.Object {
		return rpc.ErrReply(rpc.StatusBadRequest, "transfer to self")
	}
	from, err := s.acct(req.Cap.Object)
	if err != nil {
		return rpc.ErrReplyFromErr(err)
	}
	to, err := s.acct(dest.Object)
	if err != nil {
		return rpc.ErrReplyFromErr(fmt.Errorf("destination: %w", err))
	}
	// Lock both accounts in object-number order so concurrent
	// transfers over the same pair (in either direction) cannot
	// deadlock.
	first, second := from, to
	if dest.Object < req.Cap.Object {
		first, second = to, from
	}
	// The redo record is staged under both account locks — commit order
	// must match balance-mutation order per account, or a replay could
	// see a withdrawal before the deposit that funded it — but the
	// group-commit wait happens after unlock, so hot accounts share
	// disk syncs instead of serializing on them.
	var t *wal.Ticket
	rep := func() rpc.Reply {
		first.mu.Lock()
		defer first.mu.Unlock()
		second.mu.Lock()
		defer second.mu.Unlock()
		if from.dead {
			return errDead(req.Cap.Object)
		}
		if to.dead {
			return rpc.ErrReplyFromErr(fmt.Errorf("destination: banksvr: object %d: %w", dest.Object, cap.ErrNoSuchObject))
		}
		if from.balances[currency] < amount {
			return rpc.ErrReply(rpc.StatusServerError,
				fmt.Sprintf("insufficient funds: have %d %s, need %d", from.balances[currency], currency, amount))
		}
		var aerr error
		if t, aerr = s.Append(recTransferMoney(req.Cap.Object, dest.Object, currency, amount)); aerr != nil {
			return rpc.ErrReplyFromErr(aerr)
		}
		from.balances[currency] -= amount
		to.balances[currency] += amount
		return rpc.OkReply(nil)
	}()
	if rep.Status != rpc.StatusOK {
		return rep
	}
	if err := t.Wait(); err != nil {
		return rpc.ErrReplyFromErr(err)
	}
	return rep
}

func (s *Server) convert(_ context.Context, _ rpc.Meta, req rpc.Request) rpc.Reply {
	if _, err := s.table.Demand(req.Cap, cap.RightWrite); err != nil {
		return rpc.ErrReplyFromErr(err)
	}
	fromCur, rest, err := takeCurrency(req.Data)
	if err != nil {
		return rpc.ErrReply(rpc.StatusBadRequest, err.Error())
	}
	toCur, rest, err := takeCurrency(rest)
	if err != nil {
		return rpc.ErrReply(rpc.StatusBadRequest, err.Error())
	}
	if len(rest) != 8 {
		return rpc.ErrReply(rpc.StatusBadRequest, "convert wants amount(8)")
	}
	amount := int64(binary.BigEndian.Uint64(rest))
	if amount <= 0 {
		return rpc.ErrReply(rpc.StatusBadRequest, "convert amount must be positive")
	}
	rate, ok := s.cfg.Rates[[2]string{fromCur, toCur}]
	if !ok {
		return rpc.ErrReply(rpc.StatusServerError,
			fmt.Sprintf("%s is not convertible to %s", fromCur, toCur))
	}
	out := int64(uint64(amount) * rate.Num / rate.Den)
	a, err := s.acct(req.Cap.Object)
	if err != nil {
		return rpc.ErrReplyFromErr(err)
	}
	var t *wal.Ticket
	rep := func() rpc.Reply {
		a.mu.Lock()
		defer a.mu.Unlock()
		if a.dead {
			return errDead(req.Cap.Object)
		}
		if a.balances[fromCur] < amount {
			return rpc.ErrReply(rpc.StatusServerError,
				fmt.Sprintf("insufficient funds: have %d %s, need %d", a.balances[fromCur], fromCur, amount))
		}
		var aerr error
		if t, aerr = s.Append(recConvertMoney(req.Cap.Object, fromCur, toCur, amount, out)); aerr != nil {
			return rpc.ErrReplyFromErr(aerr)
		}
		a.balances[fromCur] -= amount
		a.balances[toCur] += out
		return rpc.OkReply(nil)
	}()
	if rep.Status != rpc.StatusOK {
		return rep
	}
	if err := t.Wait(); err != nil {
		return rpc.ErrReplyFromErr(err)
	}
	return rep
}

func (s *Server) destroyAccount(_ context.Context, _ rpc.Meta, req rpc.Request) rpc.Reply {
	if _, err := s.table.Demand(req.Cap, cap.RightDestroy); err != nil {
		return rpc.ErrReplyFromErr(err)
	}
	a, err := s.acct(req.Cap.Object)
	if err != nil {
		return rpc.ErrReplyFromErr(err)
	}
	a.mu.Lock()
	if a.dead {
		a.mu.Unlock()
		return errDead(req.Cap.Object)
	}
	// The destroy record is staged under the account lock, after every
	// transfer that touched the account and before any that would have
	// failed against the dead flag set below.
	t, aerr := s.Append(recDestroyAccount(req.Cap.Object))
	if aerr != nil {
		a.mu.Unlock()
		return rpc.ErrReplyFromErr(aerr)
	}
	// Once dead is set (under the account lock), racing transfers
	// fail cleanly and no deposit can slip in after the balance
	// snapshot below.
	a.dead = true
	remaining := a.balances
	a.balances = nil
	a.mu.Unlock()
	// Setting dead above elected THE destroyer. The account leaves the
	// map before the table frees the number (a delete after Destroy
	// could clobber a new account that reused it), and the winner
	// retires the (already Demand-checked) table entry by number, so a
	// concurrent revoke cannot leave an orphaned entry behind.
	s.accounts.Delete(req.Cap.Object)
	s.treasuryMu.Lock()
	for c, v := range remaining {
		s.treasury[c] += v
	}
	s.treasuryMu.Unlock()
	derr := s.table.DestroyObject(req.Cap.Object)
	if err := t.Wait(); err != nil {
		return rpc.ErrReplyFromErr(err)
	}
	if derr != nil {
		return rpc.ErrReplyFromErr(derr)
	}
	return rpc.OkReply(nil)
}

// takeCurrency parses curLen(1) ∥ currency from data, returning the
// currency and the remainder.
func takeCurrency(data []byte) (string, []byte, error) {
	if len(data) < 1 {
		return "", nil, fmt.Errorf("banksvr: missing currency")
	}
	n := int(data[0])
	if len(data) < 1+n {
		return "", nil, fmt.Errorf("banksvr: truncated currency")
	}
	c := string(data[1 : 1+n])
	if err := validCurrency(c); err != nil {
		return "", nil, err
	}
	return c, data[1+n:], nil
}
