package servertest

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"amoeba/internal/cap"
	"amoeba/internal/rpc"
	"amoeba/internal/wal"
)

var (
	dir    = cap.Capability{Server: 7, Object: 1, Check: 0xd1}
	c1, c2 = cap.Capability{Server: 7, Object: 2, Check: 0xc1}, cap.Capability{Server: 7, Object: 3, Check: 0xc2}
	acctA  = cap.Capability{Server: 9, Object: 1, Check: 0xa}
	acctB  = cap.Capability{Server: 9, Object: 2, Check: 0xb}
)

// at places a call on the logical clock by hand; ret 0 is a call that
// never returned. An answered call is Ok unless its op says otherwise.
type at struct {
	call, ret uint64
	op        Op
}

func history(echoes int, calls ...at) *Recorder {
	r := NewRecorder(echoes)
	for _, c := range calls {
		op := c.op
		op.call, op.ret, op.echoes = c.call, c.ret, echoes
		if c.ret == 0 {
			op.ret = never
		} else if op.Outcome == Pending {
			op.Outcome = Ok
		}
		r.ops = append(r.ops, op)
	}
	return r
}

func enter(name string, c cap.Capability) Op { return Op{Kind: Enter, Dir: dir, Name: name, Cap: c} }
func remove(name string) Op                  { return Op{Kind: Remove, Dir: dir, Name: name} }
func lookup(name string, c cap.Capability) Op {
	return Op{Kind: Lookup, Dir: dir, Name: name, Cap: c}
}
func list(entries map[string]cap.Capability) Op { return Op{Kind: List, Dir: dir, Entries: entries} }
func open(a cap.Capability, amount int64) Op    { return Op{Kind: Open, Acct: a, Amount: amount} }
func transfer(from, to cap.Capability, amount int64) Op {
	return Op{Kind: Transfer, Acct: from, To: to, Amount: amount}
}
func balance(a cap.Capability, amount int64) Op { return Op{Kind: Balance, Acct: a, Amount: amount} }

// refused marks op as refused by the service with a server error: a
// name that exists or does not, funds that fall short.
func refused(op Op) Op {
	op.Outcome, op.Status = Fail, rpc.StatusServerError
	return op
}

func unknown(op Op) Op {
	op.Outcome = Unknown
	return op
}

func TestCheck(t *testing.T) {
	x := map[string]cap.Capability{"x": c1}
	for _, tc := range []struct {
		name   string
		echoes []int
		calls  []at
		red    string // what the failure names; "" for a linearizable history
	}{{
		// The money is all there, in the source, so conservation holds.
		name:   "an acknowledged transfer lost",
		echoes: []int{0, 2},
		calls: []at{{1, 2, open(acctA, 100)}, {3, 4, open(acctB, 0)},
			{5, 6, transfer(acctA, acctB, 5)}, {7, 8, balance(acctB, 0)}, {9, 10, balance(acctA, 100)}},
		red: "account #1 and 1 counterparts",
	}, {
		name:   "an acknowledged Enter absent from a later List",
		echoes: []int{0, 2},
		calls:  []at{{1, 2, enter("x", c1)}, {3, 4, list(nil)}},
		red:    `name "x"`,
	}, {
		// "Exists" says the name was bound, though nothing answered ok.
		name:   "a refused Enter absent from a later List",
		echoes: []int{0, 2},
		calls:  []at{{1, 0, enter("x", c1)}, {3, 4, refused(enter("x", c1))}, {5, 6, list(nil)}},
		red:    `name "x"`,
	}, {
		// With echoes a late copy of the Enter could legally re-bind it:
		// this is the zero-echo bound the Remove-mixing soak runs under.
		name:   "a removed name listed again",
		echoes: []int{0},
		calls:  []at{{1, 2, enter("x", c1)}, {3, 4, remove("x")}, {5, 6, list(x)}},
		red:    `name "x"`,
	}, {
		name:   "a Lookup of a capability never entered",
		echoes: []int{0, 2},
		calls:  []at{{1, 2, enter("x", c1)}, {3, 4, lookup("x", c2)}},
		red:    `name "x"`,
	}, {
		// An unanswered call may have applied, at any echo bound.
		name:   "a timed-out Enter whose retry answers exists",
		echoes: []int{0, 2},
		calls: []at{{1, 2, unknown(enter("x", c1))}, {3, 4, refused(enter("x", c1))},
			{5, 6, list(x)}, {7, 8, lookup("x", c1)}},
	}, {
		name:   "an acknowledged transfer executed twice",
		echoes: []int{2},
		calls: []at{{1, 2, open(acctA, 100)}, {3, 4, open(acctB, 0)},
			{5, 6, transfer(acctA, acctB, 5)}, {7, 8, balance(acctB, 10)}, {9, 10, balance(acctA, 90)}},
	}, {
		name:   "the same, with no echoes allowed",
		echoes: []int{0},
		calls: []at{{1, 2, open(acctA, 100)}, {3, 4, open(acctB, 0)},
			{5, 6, transfer(acctA, acctB, 5)}, {7, 8, balance(acctB, 10)}, {9, 10, balance(acctA, 90)}},
		red: "account #1 and 1 counterparts",
	}, {
		// Legal exactly when the source is short at some point inside it.
		name:   "insufficient funds overlapping the transfer that drained them",
		echoes: []int{0},
		calls: []at{{1, 2, open(acctA, 60)}, {3, 4, open(acctB, 0)},
			{5, 8, transfer(acctA, acctB, 20)}, {6, 9, refused(transfer(acctA, acctB, 50))}, {10, 11, balance(acctA, 40)}},
	}, {
		name:   "insufficient funds before the transfer that drained them",
		echoes: []int{0},
		calls: []at{{1, 2, open(acctA, 60)}, {3, 4, open(acctB, 0)},
			{5, 6, refused(transfer(acctA, acctB, 50))}, {7, 8, transfer(acctA, acctB, 20)}},
		red: "account #1 and 1 counterparts",
	}, {
		// Concurrent calls may take effect in any order that explains
		// the reads.
		name:   "a Lookup overlapping the Enter and Remove",
		echoes: []int{0},
		calls:  []at{{1, 10, enter("x", c1)}, {2, 11, remove("x")}, {3, 9, lookup("x", c1)}, {12, 13, list(nil)}},
	}, {
		name:   "a Lookup after the Remove returned",
		echoes: []int{0},
		calls:  []at{{1, 2, enter("x", c1)}, {3, 4, remove("x")}, {5, 6, lookup("x", c1)}},
		red:    `name "x"`,
	}} {
		for _, echoes := range tc.echoes {
			t.Run(fmt.Sprintf("%s/echoes=%d", tc.name, echoes), func(t *testing.T) {
				err := history(echoes, tc.calls...).Check()
				switch {
				case tc.red == "" && err != nil:
					t.Fatalf("checker failed a linearizable history: %v", err)
				case tc.red == "":
				case err == nil:
					t.Fatal("checker passed a history that is not linearizable")
				case !errors.Is(err, ErrNotLinearizable) || !strings.Contains(err.Error(), tc.red):
					t.Fatalf("verdict does not name %q as not linearizable:\n%v", tc.red, err)
				}
			})
		}
	}
}

// A search that runs out of steps is unresolved, and unresolved fails.
func TestCheckUnresolvedNeverPasses(t *testing.T) {
	defer func(b int) { stepBudget = b }(stepBudget)
	stepBudget = 10
	calls := []at{{1, 2, enter("x", c1)}}
	for i := uint64(1); i < 20; i++ {
		calls = append(calls, at{1 + 4*i, 2 + 4*i, refused(enter("x", c1))})
	}
	if err := history(0, calls...).Check(); !errors.Is(err, ErrUnresolved) {
		t.Fatalf("verdict %v, want ErrUnresolved", err)
	}
}

// A failing partition among many big ones prints only itself, in under
// 50 lines.
func TestCheckShowsSmallestPartition(t *testing.T) {
	var calls []at
	next := func(op Op) { calls = append(calls, at{uint64(2*len(calls) + 1), uint64(2*len(calls) + 2), op}) }
	listed := map[string]cap.Capability{}
	for i := 0; i < 500; i++ {
		next(enter(fmt.Sprintf("n%d", i), c1))
		if i != 250 {
			listed[fmt.Sprintf("n%d", i)] = c1
		}
	}
	next(open(acctA, 1000))
	next(open(acctB, 0))
	for i := 0; i < 200; i++ {
		next(transfer(acctA, acctB, 1))
	}
	next(balance(acctB, 199))
	next(list(listed))
	err := history(0, calls...).Check()
	if err == nil || !strings.Contains(err.Error(), `name "n250" (2 calls; 2 of 501 partitions fail`) {
		t.Fatalf("verdict does not single out the smallest failing partition:\n%v", err)
	}
	if n := strings.Count(err.Error(), "\n") + 1; n >= 50 {
		t.Fatalf("failure output is %d lines, want under 50", n)
	}
}

func TestClassify(t *testing.T) {
	for _, tc := range []struct {
		err  error
		want Outcome
	}{
		{nil, Ok},
		{&rpc.StatusError{Status: rpc.StatusServerError, Detail: `entry "x" exists`}, Fail},
		{&rpc.StatusError{Status: rpc.StatusBadCapability}, Fail},
		{&rpc.StatusError{Status: rpc.StatusServerError, Detail: wal.ErrWedged.Error() + ": disk gone"}, Unknown},
		{fmt.Errorf("rpc: after 3 attempts: %w", &rpc.StatusError{Status: rpc.StatusStale}), Unknown},
		{&rpc.StatusError{Status: rpc.StatusOverload}, Unknown},
		{rpc.ErrTimeout, Unknown},
	} {
		if got, _ := Classify(tc.err); got != tc.want {
			t.Errorf("Classify(%v) = %s, want %s", tc.err, outcomeNames[got], outcomeNames[tc.want])
		}
	}
}

// Many goroutines record into one history while it is checked.
func TestRecorderConcurrent(t *testing.T) {
	r := NewRecorder(0)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				name := fmt.Sprintf("g%d-%d", g, i)
				r.Do(enter(name, c1), func(*Op) error { return nil })
				r.Do(lookup(name, cap.Nil), func(o *Op) error { o.Cap = c1; return nil })
			}
		}()
	}
	if err := r.Check(); err != nil { // pending calls count as unknown
		t.Fatal(err)
	}
	wg.Wait()
	if err := r.Check(); err != nil {
		t.Fatal(err)
	}
	if r.Len() != 800 {
		t.Fatalf("recorded %d calls, want 800", r.Len())
	}
}
