package comm_test

import (
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	"rtcomp/internal/comm"
)

// agreeResult is one rank's outcome of comm.Agree.
type agreeResult struct {
	dead    []int
	aborted bool
	err     error
}

// runAgree runs comm.Agree at epoch 0 on every rank listed in aborted (the
// value is that rank's own attempt outcome). Every other rank runs script
// instead, which plays a scripted or silent peer. All ranks stay up until
// every agreeing rank has returned, so no send fails on a closed mailbox.
func runAgree(t *testing.T, p int, aborted map[int]bool, timeout time.Duration,
	script func(c comm.Comm, agreed <-chan struct{})) []agreeResult {
	t.Helper()
	out := make([]agreeResult, p)
	var wg sync.WaitGroup
	wg.Add(len(aborted))
	agreed := make(chan struct{})
	go func() {
		wg.Wait()
		close(agreed)
	}()
	run(t, p, func(c comm.Comm) error {
		ab, agrees := aborted[c.Rank()]
		if !agrees {
			script(c, agreed)
			return nil
		}
		m := comm.NewMembership(p)
		r := &out[c.Rank()]
		r.dead, r.aborted, r.err = comm.Agree(c, m, ab, timeout)
		wg.Done()
		<-agreed
		return nil
	})
	return out
}

// silent is a peer that never speaks.
func silent(_ comm.Comm, agreed <-chan struct{}) { <-agreed }

// scripted is a peer that sends the given round messages to each listed
// rank and then waits: msgs[to][round] is the payload for that round.
func scripted(msgs map[int][2][]byte) func(comm.Comm, <-chan struct{}) {
	return func(c comm.Comm, agreed <-chan struct{}) {
		for round := 0; round < 2; round++ {
			for to, m := range msgs {
				_ = c.Send(to, comm.AgreeTag(0, round), m[round])
			}
		}
		<-agreed
	}
}

func TestAgreeCleanRun(t *testing.T) {
	out := runAgree(t, 4, map[int]bool{0: false, 1: false, 2: false, 3: false}, 2*time.Second, nil)
	for r, o := range out {
		if o.err != nil || len(o.dead) != 0 || o.aborted {
			t.Errorf("rank %d: dead=%v aborted=%v err=%v, want a clean agreement", r, o.dead, o.aborted, o.err)
		}
	}
}

// TestAgreeAbortBitReachesEveryRank: one rank's aborted attempt must be
// reported to every rank, including the ranks whose attempts completed,
// without anyone being declared dead.
func TestAgreeAbortBitReachesEveryRank(t *testing.T) {
	out := runAgree(t, 4, map[int]bool{0: false, 1: false, 2: true, 3: false}, 2*time.Second, nil)
	for r, o := range out {
		if o.err != nil || len(o.dead) != 0 || !o.aborted {
			t.Errorf("rank %d: dead=%v aborted=%v err=%v, want the abort reported and nobody dead", r, o.dead, o.aborted, o.err)
		}
	}
}

// TestAgreeRelaysAbortHeardInRoundZero: a peer whose round-0 flag reached
// only rank 1 must still reach rank 0 through rank 1's round-1 message.
func TestAgreeRelaysAbortHeardInRoundZero(t *testing.T) {
	clean := comm.EncodeAgree(false, nil)
	peer := scripted(map[int][2][]byte{
		0: {clean, clean},
		1: {comm.EncodeAgree(true, nil), clean},
	})
	out := runAgree(t, 3, map[int]bool{0: false, 1: false}, 2*time.Second, peer)
	for _, r := range []int{0, 1} {
		if o := out[r]; o.err != nil || len(o.dead) != 0 || !o.aborted {
			t.Errorf("rank %d: dead=%v aborted=%v err=%v, want the relayed abort", r, o.dead, o.aborted, o.err)
		}
	}
}

func TestAgreeSuspectsSilentRank(t *testing.T) {
	out := runAgree(t, 3, map[int]bool{0: false, 1: false}, 200*time.Millisecond, silent)
	for _, r := range []int{0, 1} {
		if o := out[r]; o.err != nil || !reflect.DeepEqual(o.dead, []int{2}) || o.aborted {
			t.Errorf("rank %d: dead=%v aborted=%v err=%v, want dead=[2] and no abort", r, o.dead, o.aborted, o.err)
		}
	}
}

// TestAgreeEvictsNamedRank: a rank that a live peer names in its suspect
// set has been condemned by the survivors and must stop.
func TestAgreeEvictsNamedRank(t *testing.T) {
	peer := scripted(map[int][2][]byte{
		0: {comm.EncodeAgree(false, nil), comm.EncodeAgree(false, []int{0})},
	})
	out := runAgree(t, 2, map[int]bool{0: false}, 2*time.Second, peer)
	if !errors.Is(out[0].err, comm.ErrEvicted) {
		t.Fatalf("named rank got err=%v, want ErrEvicted", out[0].err)
	}
}

// TestAgreeGarbledPayloadProvesLiveness: an empty or malformed round
// message still proves its sender alive, and nothing in it counts — not
// even an abort flag ahead of a broken rank set.
func TestAgreeGarbledPayloadProvesLiveness(t *testing.T) {
	for name, msgs := range map[string][2][]byte{
		"empty":         {{}, {}},
		"bad flag":      {{7}, {2, 0}},
		"truncated set": {{1, 0x80}, {1, 3, 1}},
		"trailing":      {append(comm.EncodeAgree(true, []int{0}), 9), {0, 1, 0, 5}},
	} {
		t.Run(name, func(t *testing.T) {
			peer := scripted(map[int][2][]byte{0: msgs})
			o := runAgree(t, 2, map[int]bool{0: false}, 2*time.Second, peer)[0]
			if o.err != nil || len(o.dead) != 0 || o.aborted {
				t.Fatalf("dead=%v aborted=%v err=%v, want a live sender and ignored content", o.dead, o.aborted, o.err)
			}
		})
	}
}

func TestAgreePayloadRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		aborted bool
		ranks   []int
	}{{false, []int{}}, {true, []int{}}, {false, []int{3}}, {true, []int{0, 5, 300}}} {
		ab, ranks, err := comm.DecodeAgree(comm.EncodeAgree(tc.aborted, tc.ranks))
		if err != nil || ab != tc.aborted || !reflect.DeepEqual(ranks, tc.ranks) {
			t.Errorf("round trip of (%v, %v) = (%v, %v, %v)", tc.aborted, tc.ranks, ab, ranks, err)
		}
	}
}

// FuzzAgreeDecode: the agreement decoder reads raw wire bytes from peers; it
// must never panic, and every accepted payload must survive a re-encode.
func FuzzAgreeDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add(comm.EncodeAgree(true, []int{1, 2}))
	f.Add([]byte{0, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f})
	f.Fuzz(func(t *testing.T, payload []byte) {
		ab, ranks, err := comm.DecodeAgree(payload)
		if err != nil {
			return
		}
		ab2, ranks2, err := comm.DecodeAgree(comm.EncodeAgree(ab, ranks))
		if err != nil || ab2 != ab || !reflect.DeepEqual(ranks2, ranks) {
			t.Fatalf("re-decode of accepted payload: (%v, %v) -> (%v, %v, %v)", ab, ranks, ab2, ranks2, err)
		}
	})
}
