package syscall

import (
	"fmt"

	"hydra/internal/call"
	"hydra/internal/channel"
	"hydra/internal/hostos"
	"hydra/internal/obs"
	"hydra/internal/sim"
)

// Base kernel cycles the dispatcher charges per op on its worker task, on
// top of the channel's amortized interrupt/delivery cost.
const (
	logCycles   = 250
	clockCycles = 120
)

// replyCacheSize bounds the at-most-once reply cache. It only needs to
// cover the in-flight window, so it also bounds Profile.Credits: with
// more calls in flight, call seq+replyCacheSize would take the slot of a
// call seq that a swap may still reissue. The cache is allocated
// replyChunk slots at a time, on first use.
const (
	replyCacheSize = 4096
	replyChunk     = 256
)

// Service is the host side of the syscall subsystem: it decodes requests
// off the channel, lands them in a hostos.WorkerPool dispatcher, executes
// them with per-op kernel cycle costs (log lines land on the VFS ledger),
// and writes completions back (the channel batches those too). A bounded
// reply cache makes execution at-most-once: a request id seen before is
// answered from the cache, so reissue-after-restore never double-executes.
type Service struct {
	eng  *sim.Engine
	vfs  *hostos.VFS
	pool *hostos.WorkerPool
	end  *channel.Endpoint
	tr   *obs.Shard

	// The reply cache holds call sequence seq in slot
	// seq % replyCacheSize: a sync or async call claims its slot at
	// dispatch, marked running, and the outcome replaces the mark when the
	// call finishes. A channel's calls number one ascending sequence (a
	// restored issuer continues its predecessor's), and at most
	// replyCacheSize of them are in flight, so a slot is claimed again
	// only once no copy of its call can still arrive. A reply is encoded
	// from its outcome whenever it is sent, into the one wire buffer.
	replies [replyCacheSize / replyChunk]*[replyChunk]outcome
	wire    []byte // encoding buffer; Endpoint.Write copies it
	reqFree []*request
	stats   Stats
}

// outcome is what executing one request produced: all its reply holds.
// A zero op marks a cache slot never filled; running marks a call still
// in the dispatcher, whose outcome is not known yet. running sits in
// op's padding, keeping a slot at 40 bytes.
type outcome struct {
	id      uint64
	op      Op
	running bool
	clock   sim.Time // a clock's reading, taken at execution
	err     string   // the execution error, if any
}

// request is one dispatched syscall. Records are pooled per service with
// their submit and exec steps bound once: a record returns to the pool
// when its reply is cached and sent, or at once when the request is
// rejected or answered as a duplicate.
type request struct {
	s        *Service
	c        call.Call // decoded request head; the arguments stay encoded
	argsOK   bool      // the arguments fit the op: a log takes one string
	start    sim.Time
	done     func() // the worker's release, held from submit to exec
	out      outcome
	submitFn func(*hostos.Task, func())
	execFn   func()
}

func (s *Service) getRequest() *request {
	if n := len(s.reqFree); n > 0 {
		r := s.reqFree[n-1]
		s.reqFree[n-1] = nil
		s.reqFree = s.reqFree[:n-1]
		return r
	}
	r := &request{s: s}
	r.submitFn, r.execFn = r.submit, r.exec
	return r
}

func (s *Service) putRequest(r *request) {
	r.done = nil
	if len(s.reqFree) < 256 {
		s.reqFree = append(s.reqFree, r)
	}
}

// NewService builds a dispatcher over the VFS's machine with the
// profile's worker-pool width.
func NewService(vfs *hostos.VFS, prof Profile) *Service {
	prof = prof.withDefaults()
	m := vfs.Machine()
	return &Service{
		eng:  m.Engine(),
		vfs:  vfs,
		pool: hostos.NewWorkerPool(m, "syscalld", prof.Workers),
		tr:   obs.ForCat(m.Engine(), obs.CatSyscall),
	}
}

// Attach connects the service to the host-side endpoint of the syscall
// channel and starts consuming requests.
func (s *Service) Attach(end *channel.Endpoint) {
	s.end = end
	end.InstallCallHandler(s.onRequest)
}

// Stats returns the host-side accounting.
func (s *Service) Stats() Stats { return s.stats }

func (s *Service) onRequest(data []byte) {
	r := s.getRequest()
	c := &r.c
	args, argc, err := call.UnmarshalHeadInto(data, c)
	if err != nil || c.Iface != IfaceGUID {
		s.putRequest(r)
		return // not a syscall request; ignore unrelated traffic
	}
	id := c.ReturnDesc
	op, ok := opByName(c.Method)
	if !ok {
		s.reply(id, &call.Reply{ReturnDesc: id, Err: "unknown syscall " + c.Method})
		s.putRequest(r)
		return
	}
	s.stats.Dispatched++
	if s.tr.On() {
		s.tr.Instant(obs.CatSyscall, trDispatch, int64(idSeq(id)))
	}
	if idMode(id) != ModeFireForget {
		o := s.slotFor(id)
		if o.op != 0 && o.id == id {
			// Duplicate (reissue after a swap): a call still in the
			// dispatcher will reply on its own, so this copy is dropped;
			// a finished one is answered from the cache. Neither
			// re-executes, preserving exactly-once side effects.
			s.putRequest(r)
			s.stats.Deduped++
			if s.tr.On() {
				s.tr.Instant(obs.CatSyscall, trDedup, int64(idSeq(id)))
			}
			if !o.running {
				s.stats.RepliesSent++
				_ = s.end.Write(s.encode(o))
			}
			return
		}
		*o = outcome{id: id, op: op, running: true}
	}
	r.out.op = op
	r.argsOK = op == OpClock // the clock ignores any arguments
	if op == OpLog && argc == 1 {
		_, _, err := call.ReadString(args)
		r.argsOK = err == nil
	}
	s.pool.Submit(r.submitFn)
}

// submit starts the request on a dispatcher worker.
func (r *request) submit(t *hostos.Task, done func()) {
	r.start, r.done = r.s.eng.Now(), done
	t.Syscall(r.s.cycles(r.out.op), r.execFn)
}

// exec runs the request once its kernel cycles are spent, replies, and
// releases the worker.
func (r *request) exec() {
	s, id := r.s, r.c.ReturnDesc
	r.out.id, r.out.err = id, ""
	if err := s.execute(r); err != nil {
		r.out.err = err.Error()
	}
	s.stats.Executed++
	if s.tr.On() {
		s.tr.Complete(obs.CatSyscall, trExec+idMode(id).String(), r.start, s.eng.Now()-r.start, int64(idSeq(id)))
	}
	s.finish(r)
	done := r.done
	s.putRequest(r)
	done()
}

// cycles is the kernel cost of servicing op.
func (s *Service) cycles(op Op) uint64 {
	if op == OpLog {
		return logCycles
	}
	return clockCycles
}

// finish caches r's outcome in the slot its dispatch claimed, for
// at-most-once dedup, and sends the completion. A fire-and-forget call is
// neither: it is sent once and never reissued (Restore rejects it), so no
// duplicate can arrive.
func (s *Service) finish(r *request) {
	id := r.out.id
	if idMode(id) == ModeFireForget {
		return
	}
	o := s.slotFor(id)
	*o = r.out
	s.stats.RepliesSent++
	_ = s.end.Write(s.encode(o))
}

// slotFor returns the reply cache slot of id's sequence, allocating its
// chunk on first use.
func (s *Service) slotFor(id uint64) *outcome {
	i := idSeq(id) % replyCacheSize
	c := s.replies[i/replyChunk]
	if c == nil {
		c = new([replyChunk]outcome)
		s.replies[i/replyChunk] = c
	}
	return &c[i%replyChunk]
}

// encode writes o's reply into the service's wire buffer: the error
// text, or a clock's reading as its one result.
func (s *Service) encode(o *outcome) []byte {
	var err error
	if o.err != "" || o.op != OpClock {
		s.wire, err = call.AppendReplyHead(s.wire[:0], o.id, o.err, 0)
	} else {
		s.wire, err = call.AppendReplyHead(s.wire[:0], o.id, "", 1)
		s.wire = call.AppendInt64(s.wire, int64(o.clock))
	}
	if err != nil {
		s.wire, _ = call.AppendReplyHead(s.wire[:0], o.id, "syscall: unmarshalable results", 0)
	}
	return s.wire
}

func (s *Service) reply(id uint64, rep *call.Reply) {
	if idMode(id) == ModeFireForget {
		return
	}
	wire, err := call.MarshalReply(rep)
	if err != nil {
		return
	}
	s.stats.RepliesSent++
	_ = s.end.Write(wire)
}

// badArgs is the uniform decode failure for a malformed argument vector.
func badArgs(op Op) error { return fmt.Errorf("syscall %s: bad argument vector", op) }

// execute runs one decoded syscall: the clock reads the engine into
// r.out, a log line (one string argument) counts on the VFS ledger.
func (s *Service) execute(r *request) error {
	if !r.argsOK {
		return badArgs(r.out.op)
	}
	if r.out.op == OpClock {
		r.out.clock = s.eng.Now()
		return nil
	}
	s.vfs.Log()
	return nil
}
