// The history checker. A Recorder stamps every typed-client call a soak
// makes (invoke, then ok, fail or unknown) from one process-wide logical
// clock, and Check asks whether some order of the calls' effects, each
// inside its call's interval, explains every answer the clients were
// given: the Herlihy–Wing condition, searched per key in the manner of
// Wing and Gong with memoisation on (linearized set, state). Two
// sequential models judge the answers, written over plain values so this
// package imports neither dirsvr nor banksvr: a directory maps a name to
// a capability (one partition per directory and name; a List answer is
// one read of each name, weaker than an atomic snapshot but enough for
// "acked ⟹ present" and "removed stays removed"), and a bank is a ledger
// (one partition per set of accounts that transfers connect).
//
// The echo bound. RPC is at-least-once: a client with R retries sends a
// request up to R+1 times, and every copy that reaches a live server may
// be executed. So a call answered ok or fail took effect 1..R+1 times —
// once to produce the answer, inside its interval, and up to R "echoes"
// — and a call with no answer took effect 0..R+1 times. An echo may land
// anywhere after the invocation, even after the return (a copy queued
// past its timeout), and what it would have answered is unconstrained.
// NewRecorder takes R. Soaks whose faults never overlap an operation
// pass 0, and so does a client that never retries.
package servertest

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"amoeba/internal/cap"
	"amoeba/internal/rpc"
	"amoeba/internal/wal"
)

// Kind names what a recorded call asked for.
type Kind uint8

const (
	// Enter binds Name to Cap in Dir; a bound name is refused.
	Enter Kind = iota + 1
	// Remove unbinds Name in Dir; an unbound name is refused.
	Remove
	// Lookup reads Name in Dir into Cap; an unbound name is refused.
	Lookup
	// List reads every binding of Dir into Entries.
	List
	// Open creates Acct holding Amount.
	Open
	// Transfer moves Amount from Acct to To; a short Acct is refused.
	Transfer
	// Balance reads Acct's holding into Amount.
	Balance
)

// Outcome is how a recorded call came back.
type Outcome uint8

const (
	// Pending: invoked and not yet returned.
	Pending Outcome = iota
	// Ok: the service carried the call out.
	Ok
	// Fail: the service refused it with Status, having looked at its
	// state; the models say which refusals are legal.
	Fail
	// Unknown: no answer the service decided — a timeout, a refusal
	// made before execution, a failing disk. The call may or may not
	// have taken effect.
	Unknown
)

var outcomeNames = [...]string{Pending: "pending", Ok: "ok", Fail: "fail", Unknown: "unknown"}

// Op is one typed-client call: the arguments the caller fills in before
// the call, the answer fields the call fills in, and the stamps and
// outcome the Recorder adds.
type Op struct {
	Kind    Kind
	Dir     cap.Capability
	Name    string
	Cap     cap.Capability            // Enter's entry; Lookup's answer
	Entries map[string]cap.Capability // List's answer
	Acct    cap.Capability            // Open's answer; Transfer's source; Balance's account
	To      cap.Capability
	Amount  int64 // Open's grant; Transfer's amount; Balance's answer

	Outcome Outcome
	Status  rpc.Status // the refusal, when Outcome is Fail

	call, ret uint64
	echoes    int
}

// stamp is the one logical clock every Recorder in the process reads.
var stamp atomic.Uint64

// Recorder collects a history. It is safe for concurrent use.
type Recorder struct {
	mu     sync.Mutex
	echoes int
	ops    []Op
}

// NewRecorder returns an empty history whose calls may each take effect
// up to echoes times beyond the one their answer shows.
func NewRecorder(echoes int) *Recorder { return &Recorder{echoes: echoes} }

// SetEchoes changes the echo bound for calls invoked from now on.
func (r *Recorder) SetEchoes(n int) {
	r.mu.Lock()
	r.echoes = n
	r.mu.Unlock()
}

// Do records one call. It stamps the invocation, runs call — which
// performs the typed-client call and fills in op's answer fields — and
// stamps the return with the outcome of call's error, which it returns.
func (r *Recorder) Do(op Op, call func(*Op) error) error {
	r.mu.Lock()
	op.echoes, op.call, op.ret = r.echoes, stamp.Add(1), never
	i := len(r.ops)
	r.ops = append(r.ops, op)
	r.mu.Unlock()
	err := call(&op)
	op.Outcome, op.Status = Classify(err)
	op.ret = stamp.Add(1)
	r.mu.Lock()
	r.ops[i] = op
	r.mu.Unlock()
	return err
}

// Classify sorts a call's error into the outcome the checker needs. A
// status the service answered after looking at its state is Fail;
// everything else leaves the effect unknown: no reply, a refusal made
// before execution (overload, stale authority, wrong shard), and a
// server error raised by the log rather than by the service (a wedged or
// closed WAL fails a write whose record may already be on the standbys).
func Classify(err error) (Outcome, rpc.Status) {
	if err == nil {
		return Ok, rpc.StatusOK
	}
	var se *rpc.StatusError
	if !errors.As(err, &se) {
		return Unknown, 0
	}
	switch se.Status {
	case rpc.StatusOverload, rpc.StatusStale, rpc.StatusWrongShard:
		return Unknown, se.Status
	case rpc.StatusServerError:
		if strings.Contains(se.Detail, wal.ErrWedged.Error()) || strings.Contains(se.Detail, wal.ErrClosed.Error()) {
			return Unknown, se.Status
		}
	}
	return Fail, se.Status
}

// Len reports how many calls have been recorded.
func (r *Recorder) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.ops)
}

// Count reports how many recorded calls came back with outcome o.
func (r *Recorder) Count(o Outcome) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for i := range r.ops {
		if r.ops[i].Outcome == o {
			n++
		}
	}
	return n
}

// ErrNotLinearizable is the verdict on a history no order explains.
var ErrNotLinearizable = errors.New("history not linearizable")

// ErrUnresolved is the verdict on a search that ran out of steps.
var ErrUnresolved = errors.New("history check unresolved (step budget spent)")

// stepBudget bounds one partition's search. A search that runs out is
// unresolved, and Check fails it: a history is never passed on doubt.
var stepBudget = 1 << 20

// never is the return stamp of a call that has none.
const never = math.MaxUint64

// key names one register of the models: a directory entry, holding a
// capability or nothing, or an account (name ""), holding a balance.
type key struct {
	port cap.Port
	obj  uint32
	name string
}

func keyOf(c cap.Capability, name string) key { return key{c.Server, c.Object, name} }

// event is one call's part in one partition.
type event struct {
	op     *Op
	main   bool           // one effect lands inside [call, ret] and gives op's answer
	echoes int            // further effects, anywhere after call, answers unchecked
	keys   [2]key         // the registers it touches; [1] differs only for a transfer
	slot   [2]int         // where they sit in the partition's state
	read   cap.Capability // a List's answer for keys[0]
}

// partition is one independent piece of a history: calls whose
// registers no call outside it touches.
type partition struct {
	evs  []event
	keys []key
}

// Check reports nil if the history is linearizable against the
// directory and ledger models, and otherwise the smallest partition that
// is not, with its calls. Calls still pending count as unknown.
func (r *Recorder) Check() error {
	r.mu.Lock()
	ops := append([]Op(nil), r.ops...)
	r.mu.Unlock()
	sort.Slice(ops, func(i, j int) bool { return ops[i].call < ops[j].call })
	evs, grant, err := events(ops)
	if err != nil {
		return err
	}
	parts := partitions(evs)
	var worst *partition
	var verdict error
	stuck, bad := 0, 0
	for i := range parts {
		p := &parts[i]
		s0 := ""
		for _, k := range p.keys {
			s0 += money(grant[k])
		}
		at, err := linearize(p.evs, s0)
		if err == nil {
			continue
		}
		if bad++; worst == nil || len(p.evs) < len(worst.evs) {
			worst, verdict, stuck = p, err, at
		}
	}
	if worst == nil {
		return nil
	}
	k := worst.keys[0]
	label := fmt.Sprintf("directory #%d name %q", k.obj, k.name)
	if k.name == "" {
		label = fmt.Sprintf("account #%d and %d counterparts", k.obj, len(worst.keys)-1)
	}
	return fmt.Errorf("%w: %s (%d calls; %d of %d partitions fail, smallest shown)\n%s",
		verdict, label, len(worst.evs), bad, len(parts), render(worst.evs, stuck))
}

// events turns calls into the events the search places, and collects
// the accounts' opening balances (an account never opened starts
// empty). A call with an answer has a main effect; an unanswered write
// has only echoes; an unanswered read has nothing to check. A List
// becomes one read of every name the history mentions in its directory
// before the List returned.
func events(ops []Op) ([]event, map[key]int64, error) {
	grant := map[key]int64{}
	first := map[key]uint64{}   // each entry's earliest mention
	names := map[key][]string{} // each directory's entries
	for i := range ops {
		op := &ops[i]
		mention := func(name string) {
			if k := keyOf(op.Dir, name); first[k] == 0 {
				first[k] = op.call
				names[keyOf(op.Dir, "")] = append(names[keyOf(op.Dir, "")], name)
			}
		}
		switch op.Kind {
		case Enter, Remove, Lookup:
			mention(op.Name)
		case List:
			for name := range op.Entries {
				mention(name)
			}
		case Open:
			if op.Outcome == Ok {
				grant[keyOf(op.Acct, "")] = op.Amount
			}
		}
	}
	var evs []event
	for i := range ops {
		op := &ops[i]
		k := keyOf(op.Dir, op.Name)
		switch op.Kind {
		case Open:
			continue
		case List:
			if op.Outcome == Fail {
				return nil, nil, fmt.Errorf("%w: list of directory #%d refused (%s)", ErrNotLinearizable, op.Dir.Object, op.Status)
			}
			for _, name := range names[keyOf(op.Dir, "")] {
				if k := keyOf(op.Dir, name); op.Outcome == Ok && first[k] < op.ret {
					evs = append(evs, event{op: op, main: true, keys: [2]key{k, k}, read: op.Entries[name]})
				}
			}
			continue
		case Transfer, Balance:
			k = keyOf(op.Acct, "")
		}
		e := event{op: op, keys: [2]key{k, k}}
		if op.Kind == Transfer {
			e.keys[1] = keyOf(op.To, "")
		}
		write := op.Kind == Enter || op.Kind == Remove || op.Kind == Transfer
		switch {
		case op.Outcome == Ok || op.Outcome == Fail:
			e.main = true
			if write {
				e.echoes = op.echoes
			}
		case write:
			e.echoes = op.echoes + 1
		default:
			continue
		}
		evs = append(evs, e)
	}
	return evs, grant, nil
}

// partitions groups events by the registers they share (a transfer
// joins its two accounts), keeping invocation order within each group.
func partitions(evs []event) []partition {
	parent := map[key]key{}
	var find func(key) key
	find = func(k key) key {
		if p, ok := parent[k]; ok && p != k {
			parent[k] = find(p)
			return parent[k]
		}
		parent[k] = k
		return k
	}
	for i := range evs {
		parent[find(evs[i].keys[0])] = find(evs[i].keys[1])
	}
	index := map[key]int{}
	var parts []partition
	for _, e := range evs {
		root := find(e.keys[0])
		i, ok := index[root]
		if !ok {
			i = len(parts)
			index[root] = i
			parts = append(parts, partition{})
		}
		p := &parts[i]
		for j, k := range e.keys {
			if e.slot[j] = slices.Index(p.keys, k); e.slot[j] < 0 {
				e.slot[j] = len(p.keys)
				p.keys = append(p.keys, k)
			}
		}
		p.evs = append(p.evs, e)
	}
	return parts
}

// A partition's state is a string of 16-byte registers: a capability's
// wire form (all zeros for none), or a balance in the first 8 bytes.
func money(v int64) string {
	var b [16]byte
	binary.LittleEndian.PutUint64(b[:], uint64(v))
	return string(b[:])
}

func register(s string, i int) string { return s[16*i : 16*i+16] }

func store(s string, i int, v string) string { return s[:16*i] + v + s[16*i+16:] }

func amountAt(s string, i int) int64 {
	return int64(binary.LittleEndian.Uint64([]byte(register(s, i))))
}

func wire(c cap.Capability) string {
	w := c.Encode()
	return string(w[:])
}

// step applies e to s and says whether e's recorded answer is the one
// the sequential model gives there.
func step(s string, e *event) (string, bool) {
	op := e.op
	refused := op.Outcome == Fail && op.Status == rpc.StatusServerError
	at, held := e.slot[0], register(s, e.slot[0])
	bound := held != wire(cap.Nil)
	switch op.Kind {
	case Enter:
		if bound {
			return s, refused
		}
		return store(s, at, wire(op.Cap)), op.Outcome == Ok
	case Remove:
		if !bound {
			return s, refused
		}
		return store(s, at, wire(cap.Nil)), op.Outcome == Ok
	case Lookup:
		if !bound {
			return s, refused
		}
		return s, op.Outcome == Ok && wire(op.Cap) == held
	case List:
		return s, wire(e.read) == held
	case Balance:
		return s, op.Outcome == Ok && op.Amount == amountAt(s, at)
	}
	from := amountAt(s, at)
	if from < op.Amount {
		return s, refused
	}
	s = store(s, at, money(from-op.Amount))
	return store(s, e.slot[1], money(amountAt(s, e.slot[1])+op.Amount)), op.Outcome == Ok
}

// render prints up to 40 of evs, centred on the call the search could
// not place.
func render(evs []event, stuck int) string {
	const shown = 40
	lo, hi := 0, len(evs)
	if hi > shown {
		lo = min(max(stuck-shown/2, 0), hi-shown)
		hi = lo + shown
	}
	var b strings.Builder
	if lo > 0 {
		fmt.Fprintf(&b, "  … %d earlier calls\n", lo)
	}
	for i := lo; i < hi; i++ {
		mark := "  "
		if i == stuck {
			mark = "→ "
		}
		b.WriteString(mark + describe(&evs[i]) + "\n")
	}
	if hi < len(evs) {
		fmt.Fprintf(&b, "  … %d later calls\n", len(evs)-hi)
	}
	return strings.TrimSuffix(b.String(), "\n")
}

func describe(e *event) string {
	op := e.op
	var s string
	switch op.Kind {
	case Enter:
		s = fmt.Sprintf("enter %q %s", op.Name, capName(op.Cap))
	case Remove:
		s = fmt.Sprintf("remove %q", op.Name)
	case Lookup:
		s = fmt.Sprintf("lookup %q → %s", op.Name, capName(op.Cap))
	case List:
		s = "list → " + capName(e.read)
	case Transfer:
		s = fmt.Sprintf("transfer %d %s → %s", op.Amount, capName(op.Acct), capName(op.To))
	case Balance:
		s = fmt.Sprintf("balance %s → %d", capName(op.Acct), op.Amount)
	}
	ret := "∞"
	if op.ret != never {
		ret = fmt.Sprint(op.ret)
	}
	s = fmt.Sprintf("[%d,%s] %s: %s", op.call, ret, s, outcomeNames[op.Outcome])
	if op.Outcome == Fail {
		s += " (" + op.Status.String() + ")"
	}
	if e.echoes > 0 {
		s += fmt.Sprintf(", ≤%d echoes", e.echoes)
	}
	return s
}

func capName(c cap.Capability) string {
	if c == cap.Nil {
		return "absent"
	}
	return fmt.Sprintf("#%d:%06x", c.Object, c.Check&0xffffff)
}

// search is one partition's Wing–Gong search. Calls are placed in an
// order that respects real time: a call's main effect may go next only
// if no other unplaced main effect returned before it was invoked. An
// echo is placed lazily, just before a main effect whose answer needs
// it, and only if it writes the register that answer reads: an echo
// placed earlier than it is needed can always be moved to that point,
// and one that is never needed need never be placed.
type search struct {
	evs     []event
	echoing []int // indices of events with echoes, in invocation order

	s     string
	done  []bool // main effect placed
	used  []int  // echoes placed
	hash  uint64 // Zobrist hash of done and used
	lo    int    // every main effect before lo is placed
	seen  map[memoKey]bool
	steps int
	// deepest is the most main effects any branch placed, and stuck the
	// first call that branch could not place: what a failure shows.
	placed, deepest, stuck int
}

type memoKey struct {
	hash uint64
	s    string
	at   int // the main effect being placed, or -1 between placements
}

// linearize reports whether evs (sorted by invocation) are linearizable
// from state s0. On failure it returns the index of the call the deepest
// branch stuck at.
func linearize(evs []event, s0 string) (int, error) {
	x := &search{evs: evs, s: s0, done: make([]bool, len(evs)), used: make([]int, len(evs)), seen: map[memoKey]bool{}}
	for i := range evs {
		if evs[i].echoes > 0 {
			x.echoing = append(x.echoing, i)
		}
	}
	ok, err := x.explore()
	switch {
	case err != nil:
		return x.stuck, err
	case !ok:
		return x.stuck, ErrNotLinearizable
	}
	return 0, nil
}

func zobrist(i, v int) uint64 {
	z := uint64(i)<<8 | uint64(v)
	z += 0x9e3779b97f4a7c15
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// visit spends a step and reports whether the configuration is new.
func (x *search) visit(at int) (bool, error) {
	if x.steps++; x.steps > stepBudget {
		return false, ErrUnresolved
	}
	k := memoKey{x.hash, x.s, at}
	if x.seen[k] {
		return false, nil
	}
	x.seen[k] = true
	return true, nil
}

func (x *search) explore() (bool, error) {
	lo := x.lo
	for lo < len(x.evs) && (!x.evs[lo].main || x.done[lo]) {
		lo++
	}
	if lo == len(x.evs) {
		return true, nil
	}
	if fresh, err := x.visit(-1); !fresh {
		return false, err
	}
	saved := x.lo
	x.lo = lo
	defer func() { x.lo = saved }()
	// minRet: the earliest return among unplaced main effects. Calls are
	// sorted by invocation, so none invoked after it can lower it.
	minRet := uint64(never)
	for i := lo; i < len(x.evs) && x.evs[i].op.call < minRet; i++ {
		if e := &x.evs[i]; e.main && !x.done[i] && e.op.ret < minRet {
			minRet = e.op.ret
		}
	}
	for i := lo; i < len(x.evs) && x.evs[i].op.call < minRet; i++ {
		if !x.evs[i].main || x.done[i] {
			continue
		}
		if x.placed >= x.deepest {
			x.deepest, x.stuck = x.placed, i
		}
		if ok, err := x.place(i, minRet); ok || err != nil {
			return ok, err
		}
	}
	return false, nil
}

// place puts evs[i]'s main effect next, after whatever echoes its answer
// needs.
func (x *search) place(i int, minRet uint64) (bool, error) {
	e := &x.evs[i]
	if s, ok := step(x.s, e); ok {
		prev := x.s
		x.s, x.done[i], x.hash, x.placed = s, true, x.hash^zobrist(i, 255), x.placed+1
		ok, err := x.explore()
		x.s, x.done[i], x.hash, x.placed = prev, false, x.hash^zobrist(i, 255), x.placed-1
		return ok, err
	}
	for _, j := range x.echoing {
		f := &x.evs[j]
		if f.op.call >= minRet {
			break
		}
		if x.used[j] == f.echoes || f.slot[0] != e.slot[0] && f.slot[1] != e.slot[0] {
			continue
		}
		s, _ := step(x.s, f)
		if s == x.s {
			continue // an echo that changes nothing helps nothing
		}
		prev, n := x.s, x.used[j]
		x.s, x.used[j], x.hash = s, n+1, x.hash^zobrist(j, n)^zobrist(j, n+1)
		fresh, err := x.visit(i)
		ok := false
		if fresh {
			ok, err = x.place(i, minRet)
		}
		x.s, x.used[j], x.hash = prev, n, x.hash^zobrist(j, n)^zobrist(j, n+1)
		if ok || err != nil {
			return ok, err
		}
	}
	return false, nil
}
