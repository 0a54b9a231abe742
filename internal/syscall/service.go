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
// cover the in-flight window (the credit limit) with slack for a swap's
// replayed traffic, not the whole run.
const replyCacheSize = 4096

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

	// The reply cache is a FIFO ring of the last replyCacheSize replies,
	// grown lazily; the oldest slot's wire buffer is reused on eviction.
	replyCache map[uint64]int  // id → slot in replies
	replies    []cachedReply   // the ring
	oldest     int             // next slot to evict once the ring is full
	executing  map[uint64]bool // ids submitted to the pool, not yet finished
	reqFree    []*request
	stats      Stats
}

type cachedReply struct {
	id   uint64
	wire []byte
}

// request is one dispatched syscall. Records are pooled per service with
// their submit and exec steps bound once: a record returns to the pool
// when its reply is cached and sent, or at once when the request is
// rejected or answered as a duplicate.
type request struct {
	s        *Service
	c        call.Call // decoded request; its Args storage is reused
	op       Op
	start    sim.Time
	done     func() // the worker's release, held from submit to exec
	results  [1]any
	rep      call.Reply
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
	r.done, r.results[0], r.rep.Results = nil, nil, nil
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
		eng:        m.Engine(),
		vfs:        vfs,
		pool:       hostos.NewWorkerPool(m, "syscalld", prof.Workers),
		tr:         obs.ForCat(m.Engine(), obs.CatSyscall),
		replyCache: make(map[uint64]int),
		executing:  make(map[uint64]bool),
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
	if err := call.UnmarshalInto(data, c); err != nil || c.Iface != IfaceGUID {
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
	if slot, ok := s.replyCache[id]; ok {
		// Duplicate (reissue after a swap): answer from the cache without
		// re-executing, preserving exactly-once side effects.
		s.putRequest(r)
		s.stats.Deduped++
		if s.tr.On() {
			s.tr.Instant(obs.CatSyscall, trDedup, int64(idSeq(id)))
		}
		if idMode(id) != ModeFireForget {
			s.stats.RepliesSent++
			_ = s.end.Write(s.replies[slot].wire)
		}
		return
	}
	if s.executing[id] {
		// Duplicate of a call still in the dispatcher: the original's
		// reply is on its way, so this copy is dropped outright.
		s.putRequest(r)
		s.stats.Deduped++
		if s.tr.On() {
			s.tr.Instant(obs.CatSyscall, trDedup, int64(idSeq(id)))
		}
		return
	}
	s.executing[id] = true
	r.op = op
	s.pool.Submit(r.submitFn)
}

// submit starts the request on a dispatcher worker.
func (r *request) submit(t *hostos.Task, done func()) {
	r.start, r.done = r.s.eng.Now(), done
	t.Syscall(r.s.cycles(r.op), r.execFn)
}

// exec runs the request once its kernel cycles are spent, replies, and
// releases the worker.
func (r *request) exec() {
	s, id := r.s, r.c.ReturnDesc
	r.rep = call.Reply{ReturnDesc: id}
	if err := s.execute(r); err != nil {
		r.rep.Err = err.Error()
	}
	s.stats.Executed++
	if s.tr.On() {
		s.tr.Complete(obs.CatSyscall, trExec+idMode(id).String(), r.start, s.eng.Now()-r.start, int64(idSeq(id)))
	}
	s.finish(id, &r.rep)
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

// finish caches the reply for at-most-once dedup and sends the completion
// unless the call was fire-and-forget.
func (s *Service) finish(id uint64, rep *call.Reply) {
	delete(s.executing, id)
	slot := s.oldest
	if len(s.replies) < replyCacheSize {
		slot = len(s.replies)
		s.replies = append(s.replies, cachedReply{})
	} else {
		delete(s.replyCache, s.replies[slot].id)
		s.oldest = (slot + 1) % replyCacheSize
	}
	e := &s.replies[slot]
	wire, err := call.AppendReply(e.wire[:0], rep)
	if err != nil {
		wire, _ = call.AppendReply(e.wire[:0], &call.Reply{ReturnDesc: id, Err: "syscall: unmarshalable results"})
	}
	e.id, e.wire = id, wire
	s.replyCache[id] = slot
	if idMode(id) != ModeFireForget {
		s.stats.RepliesSent++
		_ = s.end.Write(wire)
	}
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

// execute runs one decoded syscall into r.rep.Results: the clock reads
// the engine, a log line (one string argument) counts on the VFS ledger.
func (s *Service) execute(r *request) error {
	if r.op == OpClock {
		r.results[0] = int64(s.eng.Now())
		r.rep.Results = r.results[:]
		return nil
	}
	args := r.c.Args
	if len(args) != 1 {
		return badArgs(r.op)
	}
	if _, ok := args[0].(string); !ok {
		return badArgs(r.op)
	}
	s.vfs.Log()
	return nil
}
