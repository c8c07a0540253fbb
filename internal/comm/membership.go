// Membership, failure notices and the dead-set agreement protocol of the
// recovery path. A composition that can survive rank death runs in epochs:
// epoch 0 is the original schedule, and every failure-triggered retry bumps
// the epoch. All recovery traffic is tagged with the epoch, so a retried
// epoch never consumes a stale message from an aborted one — the stale
// traffic simply dies unread under its old tags.
package comm

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"time"
)

// Reserved negative tag bases for the recovery protocol, far below the
// collectives' range (the collective bases start at -1 and move by 64 per
// call, the recovery bases sit at -2^40 and beyond).
const (
	tagNoticeBase = -(1 << 40) // fail notices: tagNoticeBase - epoch
	tagAgreeBase  = -(1 << 41) // agreement rounds: tagAgreeBase - 2*epoch - round
)

// NoticeTag is the reserved tag failure notices carry in the given epoch.
func NoticeTag(epoch int) int { return tagNoticeBase - epoch }

func agreeTag(epoch, round int) int { return tagAgreeBase - 2*epoch - round }

// ErrEvicted is returned by Agree when the surviving ranks have condemned
// this rank as dead — a false suspicion under too-tight deadlines. The
// evicted rank must stop participating: the survivors have already agreed
// to recover without it, and its layer will be contributed by its buddy.
var ErrEvicted = errors.New("comm: this rank was evicted by the membership agreement")

// Membership tracks one rank's view of which ranks are alive, and the
// current recovery epoch. All live ranks advance it in lockstep: an epoch
// attempt, then one Agree call, then Advance with the agreed dead set.
type Membership struct {
	size  int
	epoch int
	dead  []bool
}

// NewMembership returns epoch-0 membership with all ranks alive.
func NewMembership(size int) *Membership {
	return &Membership{size: size, dead: make([]bool, size)}
}

// Size returns the total rank count, dead or alive.
func (m *Membership) Size() int { return m.size }

// Epoch returns the current recovery epoch (0 = the original attempt).
func (m *Membership) Epoch() int { return m.epoch }

// Alive reports whether rank r is believed alive.
func (m *Membership) Alive(r int) bool { return r >= 0 && r < m.size && !m.dead[r] }

// NumDead counts the ranks declared dead so far.
func (m *Membership) NumDead() int {
	n := 0
	for _, d := range m.dead {
		if d {
			n++
		}
	}
	return n
}

// Dead returns the declared-dead ranks in ascending order.
func (m *Membership) Dead() []int {
	var out []int
	for r, d := range m.dead {
		if d {
			out = append(out, r)
		}
	}
	return out
}

// Advance declares the given ranks dead and enters the next epoch.
func (m *Membership) Advance(newDead []int) {
	for _, r := range newDead {
		if r >= 0 && r < m.size {
			m.dead[r] = true
		}
	}
	m.epoch++
}

// Revive returns the given ranks to the live set and enters the next epoch
// — the join counterpart of Advance, run by every survivor in lockstep after
// a JOIN-DONE. The epoch bump gives the joiner the strictly-higher epoch its
// admission promised, and makes any traffic from before the revive stale.
func (m *Membership) Revive(ranks []int) {
	for _, r := range ranks {
		if r >= 0 && r < m.size {
			m.dead[r] = false
		}
	}
	m.epoch++
}

// Resume constructs membership at an arbitrary epoch with the given dead
// set — a joiner's view, taken verbatim from the ADMIT that the agreement
// round certified.
func Resume(size, epoch int, dead []int) *Membership {
	m := &Membership{size: size, epoch: epoch, dead: make([]bool, size)}
	for _, r := range dead {
		if r >= 0 && r < size {
			m.dead[r] = true
		}
	}
	return m
}

// NoticeKeys returns the receive keys for this epoch's failure notices
// from every live peer. A recovery-mode receive folds these into its key
// set so a peer's abort wakes it immediately instead of at its deadline.
func (m *Membership) NoticeKeys(self int) []MsgKey {
	var keys []MsgKey
	for r := 0; r < m.size; r++ {
		if r != self && !m.dead[r] {
			keys = append(keys, MsgKey{From: r, Tag: NoticeTag(m.epoch)})
		}
	}
	return keys
}

// BroadcastFailure sends a best-effort FAILED notice carrying the suspected
// ranks to every live peer on this epoch's reserved tag. Send errors are
// ignored — a peer that cannot be reached is itself a candidate for the
// dead set, which the following Agree call will establish. Each rank must
// broadcast at most once per epoch (tag uniqueness).
func BroadcastFailure(c Comm, m *Membership, suspects []int) {
	payload := EncodeRankSet(suspects)
	me := c.Rank()
	for r := 0; r < m.size; r++ {
		if r != me && !m.dead[r] {
			_ = c.Send(r, NoticeTag(m.epoch), payload)
		}
	}
}

// Agree is the per-epoch membership agreement — run by every live rank
// after its epoch attempt, whether the attempt completed or aborted. It
// doubles as the commit barrier: a completed attempt commits only when the
// agreement declares no new dead ranks and reports that no rank aborted.
//
// Two timeout-bounded rounds over the believed-live set. Every round
// message carries an abort flag ahead of the sender's suspect set (see
// encodeAgree). Round 0: every rank pings every live peer and collects
// pings; a peer not heard within the deadline is suspected — detection is
// by silence, because a dead rank's receives surface locally only as
// deadlines without rank attribution. Round 1: every rank sends its suspect
// set to every live peer (suspects included, so a falsely-suspected rank
// learns its fate) and unions the sets it collects from non-suspects. The
// union, of ranks everyone either failed to hear or was told about, is the
// agreed new dead set. If this rank appears in a received set it returns
// ErrEvicted.
//
// The abort flag is set when the sender's own attempt aborted (the aborted
// argument) or when it heard a set flag in round 0, and is unioned like the
// suspect set; anyAborted reports the union. A peer that aborted after this
// rank stopped listening is therefore reported by the very ping that proves
// it alive: either this rank hears the flag, or it does not hear the peer
// and suspects it — in both cases the epoch does not commit.
//
// The timeout must comfortably exceed the composition's receive deadline:
// a peer may enter Agree up to one receive deadline later than the first
// aborter (it was still blocked on the dead rank when the notice raced
// past it).
func Agree(c Comm, m *Membership, aborted bool, timeout time.Duration) (newDead []int, anyAborted bool, err error) {
	me := c.Rank()
	suspect := map[int]bool{}
	anyAborted = aborted
	for round := 0; round < 2; round++ {
		tag := agreeTag(m.epoch, round)
		payload := encodeAgree(anyAborted, sortedRanks(suspect))
		var keys []MsgKey
		for r := 0; r < m.size; r++ {
			if r == me || m.dead[r] {
				continue
			}
			// Best-effort send even to fresh suspects (see round 1 above);
			// a send that names a failed peer confirms the suspicion.
			if err := c.Send(r, tag, payload); err != nil {
				var perr *PeerError
				switch {
				case errors.As(err, &perr):
					suspect[perr.Rank] = true
				case IsRecoverable(err):
					suspect[r] = true
				default:
					return nil, false, fmt.Errorf("comm: agree round %d send: %w", round, err)
				}
			}
			if !suspect[r] {
				keys = append(keys, MsgKey{From: r, Tag: tag})
			}
		}
		deadline := time.Now().Add(timeout)
		for len(keys) > 0 {
			remain := time.Until(deadline)
			if remain <= 0 {
				for _, k := range keys {
					suspect[k.From] = true
				}
				break
			}
			from, _, data, err := c.RecvAnyTimeout(keys, remain)
			if err != nil {
				var perr *PeerError
				switch {
				case errors.As(err, &perr):
					suspect[perr.Rank] = true
					keys = dropKeysFrom(keys, perr.Rank)
					continue
				case errors.Is(err, ErrDeadline):
					for _, k := range keys {
						suspect[k.From] = true
					}
					keys = nil
					continue
				}
				return nil, false, fmt.Errorf("comm: agree round %d recv: %w", round, err)
			}
			keys = dropKeysFrom(keys, from)
			flag, theirs, derr := decodeAgree(data)
			if derr != nil {
				// A garbled message still proves the sender alive; its
				// content is ignored.
				continue
			}
			anyAborted = anyAborted || flag
			for _, r := range theirs {
				if r == me {
					return nil, false, ErrEvicted
				}
				if r >= 0 && r < m.size && !m.dead[r] && !suspect[r] {
					suspect[r] = true
					keys = dropKeysFrom(keys, r)
				}
			}
		}
	}
	return sortedRanks(suspect), anyAborted, nil
}

// encodeAgree frames one agreement round message: a flag byte (1 when the
// sender knows of an aborted attempt, else 0) followed by the sender's
// suspect set in EncodeRankSet form.
func encodeAgree(aborted bool, suspects []int) []byte {
	flag := byte(0)
	if aborted {
		flag = 1
	}
	return appendRankSet([]byte{flag}, suspects)
}

// decodeAgree inverts encodeAgree. Any payload it rejects — empty, a flag
// byte other than 0 or 1, a malformed rank set — is garbled.
func decodeAgree(payload []byte) (aborted bool, suspects []int, err error) {
	if len(payload) == 0 || payload[0] > 1 {
		return false, nil, fmt.Errorf("comm: corrupt agreement flag")
	}
	suspects, err = DecodeRankSet(payload[1:])
	if err != nil {
		return false, nil, err
	}
	return payload[0] == 1, suspects, nil
}

func dropKeysFrom(keys []MsgKey, rank int) []MsgKey {
	out := keys[:0]
	for _, k := range keys {
		if k.From != rank {
			out = append(out, k)
		}
	}
	return out
}

func sortedRanks(set map[int]bool) []int {
	out := make([]int, 0, len(set))
	for r := range set {
		out = append(out, r)
	}
	sort.Ints(out)
	return out
}

// EncodeRankSet serialises a rank list as uvarint count + uvarint ranks.
func EncodeRankSet(ranks []int) []byte { return appendRankSet(nil, ranks) }

func appendRankSet(dst []byte, ranks []int) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(ranks)))
	for _, r := range ranks {
		dst = binary.AppendUvarint(dst, uint64(r))
	}
	return dst
}

// DecodeRankSet inverts EncodeRankSet.
func DecodeRankSet(payload []byte) ([]int, error) {
	n, off := binary.Uvarint(payload)
	if off <= 0 {
		return nil, fmt.Errorf("comm: corrupt rank-set header")
	}
	rest := payload[off:]
	if n > uint64(len(rest)) {
		// Every entry takes at least one byte; a larger count is corrupt
		// (and must not size the allocation below).
		return nil, fmt.Errorf("comm: corrupt rank-set count")
	}
	out := make([]int, 0, n)
	for i := uint64(0); i < n; i++ {
		v, k := binary.Uvarint(rest)
		if k <= 0 {
			return nil, fmt.Errorf("comm: corrupt rank-set entry")
		}
		out = append(out, int(v))
		rest = rest[k:]
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("comm: %d trailing bytes in rank set", len(rest))
	}
	return out, nil
}
