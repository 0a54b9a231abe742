package flowtable

import (
	"encoding/binary"
	"fmt"

	"hydra/internal/obs"
	"hydra/internal/sim"
)

// Match is a wildcard 5-tuple predicate; a zero field matches anything.
type Match struct {
	SrcIP, DstIP     uint32
	SrcPort, DstPort uint16
	Proto            uint8
}

// Covers reports whether k satisfies every non-zero field of m.
func (m Match) Covers(k Key) bool {
	return (m.SrcIP == 0 || m.SrcIP == k.SrcIP) &&
		(m.DstIP == 0 || m.DstIP == k.DstIP) &&
		(m.SrcPort == 0 || m.SrcPort == k.SrcPort) &&
		(m.DstPort == 0 || m.DstPort == k.DstPort) &&
		(m.Proto == 0 || m.Proto == k.Proto)
}

// Rule is one classifier line: the first rule covering a new flow's key
// decides its verdict.
type Rule struct {
	Match  Match
	Action Action
}

// PipelineConfig assembles one shard's match-action stage.
type PipelineConfig struct {
	Table Config
	// Rules classify a flow's first packet, first match wins; a flow no
	// rule covers gets Default.
	Rules   []Rule
	Default Action
	// Backends sizes the rewrite pool: a rewritten flow sticks to
	// backend Hash()%Backends for its whole life.
	Backends int
}

// PipeStats counts per-packet verdict applications over the pipeline's
// lifetime (carried across Checkpoint/Restore).
type PipeStats struct {
	Forwarded, Rewritten, Counted, Dropped uint64
}

// Pipeline is the per-shard match-action stage: classify a flow once,
// cache the verdict in the connection-tracking Table, apply it to every
// packet.
type Pipeline struct {
	cfg   PipelineConfig
	table *Table
	stats PipeStats
	tr    *obs.Shard
}

// NewPipeline builds a pipeline and its table; tr (nil to disable)
// receives obs.CatFlow instants from both.
func NewPipeline(cfg PipelineConfig, tr *obs.Shard) *Pipeline {
	if cfg.Backends < 1 {
		cfg.Backends = 1
	}
	return &Pipeline{cfg: cfg, table: New(cfg.Table, tr), tr: tr}
}

// Table exposes the connection-tracking state.
func (p *Pipeline) Table() *Table { return p.table }

// Stats returns the verdict counters.
func (p *Pipeline) Stats() PipeStats { return p.stats }

// classify runs the rule list for a flow's first packet.
func (p *Pipeline) classify(k Key) (Action, uint16) {
	act := p.cfg.Default
	for _, r := range p.cfg.Rules {
		if r.Match.Covers(k) {
			act = r.Action
			break
		}
	}
	var backend uint16
	if act == ActRewrite {
		backend = uint16(k.Hash() % uint64(p.cfg.Backends))
	}
	return act, backend
}

// Process handles one packet: table hit applies the cached verdict, miss
// classifies and inserts. It returns the verdict, the rewrite backend
// (rewrite verdicts only) and whether the table hit.
func (p *Pipeline) Process(k Key, now sim.Time) (Action, uint16, bool) {
	act, backend, hit := p.table.Lookup(k, now)
	if !hit {
		act, backend = p.classify(k)
		p.table.Insert(k, act, backend, now)
	}
	switch act {
	case ActForward:
		p.stats.Forwarded++
	case ActRewrite:
		p.stats.Rewritten++
	case ActCount:
		p.stats.Counted++
	case ActDrop:
		p.stats.Dropped++
		if p.tr.On() {
			p.tr.Instant(obs.CatFlow, "flow.drop", int64(k.Hash()))
		}
	}
	return act, backend, hit
}

// Checkpoint serializes the verdict counters plus the table.
func (p *Pipeline) Checkpoint() []byte {
	out := make([]byte, 4*8)
	binary.LittleEndian.PutUint64(out, p.stats.Forwarded)
	binary.LittleEndian.PutUint64(out[8:], p.stats.Rewritten)
	binary.LittleEndian.PutUint64(out[16:], p.stats.Counted)
	binary.LittleEndian.PutUint64(out[24:], p.stats.Dropped)
	return append(out, p.table.Checkpoint()...)
}

// Restore replaces the pipeline's counters and table from a Checkpoint.
// Like Table.Restore it is atomic: the counters change only once the
// table has accepted its part.
func (p *Pipeline) Restore(b []byte) error {
	if len(b) < 4*8 {
		return fmt.Errorf("flowtable: pipeline checkpoint too short (%d bytes)", len(b))
	}
	if err := p.table.Restore(b[4*8:]); err != nil {
		return err
	}
	p.stats.Forwarded = binary.LittleEndian.Uint64(b)
	p.stats.Rewritten = binary.LittleEndian.Uint64(b[8:])
	p.stats.Counted = binary.LittleEndian.Uint64(b[16:])
	p.stats.Dropped = binary.LittleEndian.Uint64(b[24:])
	return nil
}

// Digest is FNV-1a over the pipeline Checkpoint.
func (p *Pipeline) Digest() uint64 {
	h := uint64(fnvOffset)
	for _, c := range p.Checkpoint() {
		h ^= uint64(c)
		h *= fnvPrime
	}
	return h
}
