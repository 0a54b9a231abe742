package syscall

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"hydra/internal/call"
	"hydra/internal/channel"
	"hydra/internal/device"
	"hydra/internal/obs"
	"hydra/internal/resource"
	"hydra/internal/sim"
)

// issueCycles is the firmware cost of marshaling a request and posting it
// to the syscall ring, charged on the device before the channel's own
// transmit costs.
const issueCycles = 300

// ErrNoCredits is returned by Issue when the in-flight credit limit is
// reached and no resource.Node is attached to say so more precisely.
var ErrNoCredits = errors.New("syscall: no issue credits available")

// ErrDetached is returned by Issue before Attach connects an endpoint.
var ErrDetached = errors.New("syscall: issuer not attached to a channel")

// ErrSealed is returned by Issue after Checkpoint: the snapshot fixed the
// sequence counter, so new calls on this instance would reuse the ids its
// successor continues from — the host would dedup them as replays and
// silently drop their effects. New work belongs to the restored issuer.
var ErrSealed = errors.New("syscall: issuer sealed by checkpoint")

type pendingCall struct {
	op       Op
	mode     Mode
	issued   sim.Time
	k        func(*Completion)
	wire     []byte // retained while pending, for checkpoint + reissue
	restored bool   // entry rebuilt by Restore; completion routes to the default handler
}

// Issuer is the device side of the syscall subsystem: it marshals typed
// host syscalls, charges in-flight credits, tracks the pending table, and
// delivers completions to continuations. The pending table checkpoints
// and restores, so a hot-swapped Offcode's in-flight syscalls complete
// exactly once on the replacement instance.
type Issuer struct {
	dev  *device.Device
	eng  *sim.Engine
	end  *channel.Endpoint
	res  *resource.Node // credit quota; nil falls back to prof.Credits
	prof Profile
	tr   *obs.Shard

	nextSeq  uint64
	pending  map[uint64]*pendingCall
	inFlight int
	sealed   bool
	defaultK func(*Completion)
	stats    Stats
	lats     []sim.Time // completion latencies, issue→done
}

// NewIssuer builds an issuer for the device. res, when non-nil, is
// charged QuotaSyscalls(1) per in-flight call — the per-Offcode credit
// quota; a nil res falls back to the profile's Credits counter.
func NewIssuer(dev *device.Device, prof Profile, res *resource.Node) *Issuer {
	eng := dev.Engine()
	return &Issuer{
		dev:     dev,
		eng:     eng,
		res:     res,
		prof:    prof.withDefaults(),
		tr:      obs.ForCat(eng, obs.CatSyscall),
		nextSeq: 1,
		pending: make(map[uint64]*pendingCall),
	}
}

// Attach connects the issuer to its device-side channel endpoint and
// installs the completion handler. Calls restored by a preceding Restore
// are re-sent here, in ascending sequence order (the host service dedups
// re-executions), so an in-flight syscall survives the swap no matter
// whether its original request, its completion, or neither was in the air.
func (i *Issuer) Attach(end *channel.Endpoint) {
	i.end = end
	end.InstallCallHandler(i.onCompletion)
	for _, id := range i.pendingIDs() {
		p := i.pending[id]
		if !p.restored || p.wire == nil {
			continue
		}
		i.stats.Reissued++
		if i.tr.On() {
			i.tr.Instant(obs.CatSyscall, trReissue, int64(idSeq(id)))
		}
		wire := p.wire
		i.dev.Exec(issueCycles, func() { _ = i.end.Write(wire) })
	}
}

// SetDefaultHandler installs the continuation for completions of restored
// in-flight calls, whose original Go closures did not survive the swap.
func (i *Issuer) SetDefaultHandler(k func(*Completion)) { i.defaultK = k }

// InFlight reports calls issued but not yet completed.
func (i *Issuer) InFlight() int { return i.inFlight }

// Stats returns the device-side accounting.
func (i *Issuer) Stats() Stats { return i.stats }

// Latencies returns the issue→completion spans recorded so far.
func (i *Issuer) Latencies() []sim.Time { return i.lats }

// chargeCredits takes n in-flight credits, all or none.
func (i *Issuer) chargeCredits(n int) error {
	if i.res != nil {
		if err := i.res.Charge(QuotaSyscalls, int64(n)); err != nil {
			return err
		}
	} else if i.inFlight+n > i.prof.Credits {
		return ErrNoCredits
	}
	i.inFlight += n
	return nil
}

func (i *Issuer) releaseCredit() {
	i.inFlight--
	if i.res != nil {
		i.res.Release(QuotaSyscalls, 1)
	}
}

// Issue marshals one syscall and posts it to the host. k receives the
// completion (nil k is allowed for ModeFireForget). The credit is held
// until completion — or, for fire-and-forget, until the request is handed
// to the channel.
func (i *Issuer) Issue(op Op, mode Mode, args []any, k func(*Completion)) error {
	if i.end == nil {
		return ErrDetached
	}
	if i.sealed {
		return ErrSealed
	}
	if err := i.chargeCredits(1); err != nil {
		i.stats.CreditDenied++
		return err
	}
	id := packID(i.nextSeq, mode)
	i.nextSeq++
	wire, err := call.Marshal(&call.Call{Iface: IfaceGUID, Method: op.String(), Args: args, ReturnDesc: id})
	if err != nil {
		i.releaseCredit()
		return err
	}
	i.stats.Issued++
	if i.tr.On() {
		i.tr.Instant(obs.CatSyscall, trIssue, int64(idSeq(id)))
	}
	if mode == ModeFireForget {
		i.stats.FireForget++
		i.dev.Exec(issueCycles, func() {
			_ = i.end.Write(wire)
			i.releaseCredit()
		})
		return nil
	}
	i.pending[id] = &pendingCall{op: op, mode: mode, issued: i.eng.Now(), k: k, wire: wire}
	i.dev.Exec(issueCycles, func() { _ = i.end.Write(wire) })
	return nil
}

// onCompletion handles a reply payload arriving on the device endpoint.
func (i *Issuer) onCompletion(data []byte) {
	rep, err := call.UnmarshalReply(data)
	if err != nil {
		return // not a completion (e.g. unrelated traffic on a shared channel)
	}
	id := rep.ReturnDesc
	p, ok := i.pending[id]
	if !ok {
		// Already completed once — a duplicate from reissue-after-restore.
		i.stats.Orphaned++
		if i.tr.On() {
			i.tr.Instant(obs.CatSyscall, trOrphan, int64(idSeq(id)))
		}
		return
	}
	delete(i.pending, id)
	i.releaseCredit()
	now := i.eng.Now()
	c := &Completion{ID: id, Op: p.op, Results: rep.Results, Err: rep.Err, Issued: p.issued, Done: now}
	i.stats.Completed++
	if rep.Err != "" {
		i.stats.Errors++
	}
	i.lats = append(i.lats, c.Latency())
	if i.tr.On() {
		i.tr.Instant(obs.CatSyscall, trComplete, int64(idSeq(id)))
		// End-to-end per-call span on the device shard: issue→complete.
		i.tr.Complete(obs.CatSyscall, trCallSpan+p.op.String(), p.issued, now-p.issued, int64(idSeq(id)))
	}
	switch {
	case p.k != nil:
		p.k(c)
	case p.restored && i.defaultK != nil:
		i.defaultK(c)
	}
}

// --- checkpoint/restore of in-flight syscalls ---

const ckptVersion = 1

// Checkpoint serializes the pending table: next sequence number plus, for
// every in-flight call, its id, issue time, and marshaled request. An
// Offcode owning an issuer folds these bytes into its own Checkpoint.
// Checkpointing seals the issuer — further Issues fail with ErrSealed,
// because the successor restored from this snapshot continues the sequence
// space (see ErrSealed).
func (i *Issuer) Checkpoint() []byte {
	i.sealed = true
	b := []byte{ckptVersion}
	b = binary.LittleEndian.AppendUint64(b, i.nextSeq)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(i.pending)))
	for _, id := range i.pendingIDs() {
		p := i.pending[id]
		b = binary.LittleEndian.AppendUint64(b, id)
		b = binary.LittleEndian.AppendUint64(b, uint64(p.issued))
		b = append(b, byte(p.op))
		b = binary.LittleEndian.AppendUint32(b, uint32(len(p.wire)))
		b = append(b, p.wire...)
	}
	return b
}

// pendingIDs lists the pending call ids in ascending sequence order, the
// deterministic order checkpoints and reissues use.
func (i *Issuer) pendingIDs() []uint64 {
	ids := make([]uint64, 0, len(i.pending))
	for id := range i.pending {
		ids = append(ids, id)
	}
	slices.SortFunc(ids, func(a, b uint64) int { return cmp.Compare(idSeq(a), idSeq(b)) })
	return ids
}

// ckptEntryHeader is one checkpoint entry's fixed part: id, issue time,
// op and wire length.
const ckptEntryHeader = 8 + 8 + 1 + 4

// Restore rebuilds the pending table on a fresh issuer. Continuation
// closures cannot cross a swap, so restored calls complete through the
// default handler; credits are re-charged so the quota stays truthful.
// Restore validates the whole checkpoint before applying any of it: on
// error the issuer is unchanged.
func (i *Issuer) Restore(b []byte) error {
	if len(b) < 13 || b[0] != ckptVersion {
		return fmt.Errorf("syscall: bad checkpoint (len %d)", len(b))
	}
	nextSeq := binary.LittleEndian.Uint64(b[1:])
	n := int(binary.LittleEndian.Uint32(b[9:]))
	rest := b[13:]
	ids := make([]uint64, 0, min(n, len(rest)/ckptEntryHeader))
	calls := make([]*pendingCall, 0, cap(ids))
	for j := 0; j < n; j++ {
		if len(rest) < ckptEntryHeader {
			return fmt.Errorf("syscall: truncated checkpoint entry %d", j)
		}
		id := binary.LittleEndian.Uint64(rest)
		issued := sim.Time(binary.LittleEndian.Uint64(rest[8:]))
		op := Op(rest[16])
		wl := int(binary.LittleEndian.Uint32(rest[17:]))
		rest = rest[ckptEntryHeader:]
		if len(rest) < wl {
			return fmt.Errorf("syscall: truncated checkpoint wire %d", j)
		}
		wire := rest[:wl]
		rest = rest[wl:]
		prev := uint64(0)
		if j > 0 {
			prev = idSeq(ids[j-1])
		}
		if err := i.checkRestored(id, op, wire, prev, nextSeq); err != nil {
			return fmt.Errorf("syscall: checkpoint entry %d: %w", j, err)
		}
		ids = append(ids, id)
		calls = append(calls, &pendingCall{op: op, mode: idMode(id), issued: issued,
			wire: append([]byte(nil), wire...), restored: true})
	}
	if len(rest) != 0 {
		return fmt.Errorf("syscall: %d trailing bytes after checkpoint", len(rest))
	}
	if len(calls) > 0 {
		if err := i.chargeCredits(len(calls)); err != nil {
			return fmt.Errorf("syscall: restore over credit limit: %w", err)
		}
	}
	i.nextSeq = nextSeq
	for j, id := range ids {
		i.pending[id] = calls[j]
	}
	return nil
}

// checkRestored validates one checkpointed call: sequences strictly
// ascend (so no id repeats) and stay below nextSeq, the mode expects a
// completion, the id is not already pending, and the marshaled request is
// the op's call under that id — anything else would leave an entry no
// completion can ever retire, holding its credit forever.
func (i *Issuer) checkRestored(id uint64, op Op, wire []byte, prevSeq, nextSeq uint64) error {
	seq := idSeq(id)
	switch {
	case seq <= prevSeq:
		return fmt.Errorf("sequence %d does not ascend past %d", seq, prevSeq)
	case seq >= nextSeq:
		return fmt.Errorf("sequence %d not below next sequence %d", seq, nextSeq)
	case idMode(id) != ModeSync && idMode(id) != ModeAsync:
		return fmt.Errorf("sequence %d: mode %v expects no completion", seq, idMode(id))
	}
	if _, dup := i.pending[id]; dup {
		return fmt.Errorf("sequence %d already pending", seq)
	}
	c, err := call.Unmarshal(wire)
	if err != nil {
		return fmt.Errorf("sequence %d: %w", seq, err)
	}
	if c.Iface != IfaceGUID || c.ReturnDesc != id || c.Method != op.String() || op.String() == "op?" {
		return fmt.Errorf("sequence %d: request is not %v call %#x", seq, op, id)
	}
	return nil
}

// Log sends one log line to the host (typically fire-and-forget).
func (i *Issuer) Log(msg string, mode Mode) error {
	return i.Issue(OpLog, mode, []any{msg}, nil)
}
