// Command hydra-trace summarizes a virtual-time trace written by the
// -trace flag of cmd/hydra-bench or cmd/tivopc
// (Chrome trace-event JSON; the same file loads in Perfetto for the
// visual view). It prints a per-component virtual-time breakdown — how
// much simulated time each layer's spans cover and how many records each
// produced — and the longest individual spans.
//
// Traces holding device-syscall records (the syscall component, written
// by `hydra-bench -trace x11=FILE`) get an extra section: the call lifecycle
// funnel (issued→dispatched→completed plus replay/dedup counts), the
// host dispatch cost per mode (sync/async/ff exec spans), per-op
// device-observed completion latency, and the -top N slowest individual
// syscalls by end-to-end span.
//
// With -msg ID it instead reconstructs the critical path of one message
// through the stack: the window from the message's chan.send instant to
// its chan.delivered instant, with every channel, bus, and host-OS span
// overlapping that window on the same engine shard, in virtual-time
// order — the NIC→bus→host walk of a single delivery. Message ids are
// the arg of chan.send/chan.delivered instants (stamped by the channel
// when tracing is on; the first send is id 1).
//
// Usage:
//
//	hydra-trace [-top N] [-msg ID] trace.json
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"sort"
	"strings"

	"hydra/internal/obs"
	"hydra/internal/sim"
)

func main() {
	top := flag.Int("top", 10, "how many of the longest spans to list")
	msg := flag.Int64("msg", 0, "reconstruct the critical path of this message id instead (0 = off)")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: hydra-trace [-top N] [-msg ID] trace.json")
		os.Exit(2)
	}
	tr, err := obs.ReadChromeFile(flag.Arg(0))
	if err != nil {
		log.Fatal(err)
	}
	if len(tr.Records) == 0 {
		log.Fatalf("hydra-trace: %s holds no records", flag.Arg(0))
	}
	if tr.Dropped > 0 {
		fmt.Fprintf(os.Stderr,
			"hydra-trace: WARNING: recorder ring overflowed while capturing; the oldest %d records are missing\n",
			tr.Dropped)
	}

	if *msg != 0 {
		criticalPath(tr, *msg)
		return
	}
	summarize(tr, *top)
	summarizeSyscalls(tr, *top)
}

// nameStat aggregates one record name's rows.
type nameStat struct {
	name    string
	cat     obs.Cat
	count   int
	spans   int
	total   sim.Time // summed span duration
	longest sim.Time
}

// summarize prints the per-component breakdown and the top spans.
func summarize(tr *obs.ChromeTrace, top int) {
	first := tr.Records[0].At
	last := first
	byName := map[string]*nameStat{}
	catTotal := map[obs.Cat]sim.Time{}
	catRecords := map[obs.Cat]int{}
	shards := map[int32]bool{}
	for i := range tr.Records {
		r := &tr.Records[i]
		shards[r.Shard] = true
		if end := r.At + r.Dur; end > last {
			last = end
		}
		st := byName[r.Name]
		if st == nil {
			st = &nameStat{name: r.Name, cat: r.Cat}
			byName[r.Name] = st
		}
		st.count++
		catRecords[r.Cat]++
		if r.Kind == obs.KindSpan {
			st.spans++
			st.total += r.Dur
			catTotal[r.Cat] += r.Dur
			if r.Dur > st.longest {
				st.longest = r.Dur
			}
		}
	}
	span := last - first
	fmt.Printf("trace: %d records on %d shard(s), %v of virtual time (%v → %v)\n",
		len(tr.Records), len(shards), span, first, last)
	var labels []string
	for idx, name := range tr.Labels {
		labels = append(labels, fmt.Sprintf("%d=%s", idx, name))
	}
	sort.Strings(labels)
	if len(labels) > 0 {
		fmt.Printf("shards: %v\n", labels)
	}

	// Per-component (category) virtual-time breakdown. Span times within a
	// component overlap freely (a DMA span covers its per-message
	// instants), so the busy column is an upper bound on exclusive time.
	fmt.Printf("\nper-component breakdown (span virtual time; %% of trace window)\n")
	fmt.Printf("  %-10s %10s %14s %8s\n", "component", "records", "busy", "%")
	var cats []obs.Cat
	for c := range catRecords {
		cats = append(cats, c)
	}
	sort.Slice(cats, func(i, j int) bool { return cats[i] < cats[j] })
	for _, c := range cats {
		pct := 0.0
		if span > 0 {
			pct = 100 * float64(catTotal[c]) / float64(span)
		}
		fmt.Printf("  %-10s %10d %14v %7.2f%%\n", c, catRecords[c], catTotal[c], pct)
	}

	// Per-name rows, grouped under their component.
	fmt.Printf("\nper-event breakdown\n")
	fmt.Printf("  %-18s %-10s %8s %14s %14s\n", "name", "component", "count", "total", "longest")
	var names []*nameStat
	for _, st := range byName {
		names = append(names, st)
	}
	sort.Slice(names, func(i, j int) bool {
		if names[i].cat != names[j].cat {
			return names[i].cat < names[j].cat
		}
		return names[i].name < names[j].name
	})
	for _, st := range names {
		fmt.Printf("  %-18s %-10s %8d %14v %14v\n", st.name, st.cat, st.count, st.total, st.longest)
	}

	// Longest individual spans.
	var spans []obs.Record
	for _, r := range tr.Records {
		if r.Kind == obs.KindSpan {
			spans = append(spans, r)
		}
	}
	if len(spans) == 0 || top <= 0 {
		return
	}
	sort.Slice(spans, func(i, j int) bool {
		if spans[i].Dur != spans[j].Dur {
			return spans[i].Dur > spans[j].Dur
		}
		if spans[i].At != spans[j].At {
			return spans[i].At < spans[j].At
		}
		return spans[i].Shard < spans[j].Shard
	})
	if top > len(spans) {
		top = len(spans)
	}
	fmt.Printf("\ntop %d spans\n", top)
	fmt.Printf("  %-18s %-12s %14s %14s %10s\n", "name", "shard", "start", "duration", "arg")
	for _, r := range spans[:top] {
		fmt.Printf("  %-18s %-12s %14v %14v %10d\n",
			r.Name, shardLabel(tr, r.Shard), r.At, r.Dur, r.Arg)
	}
}

// summarizeSyscalls prints the device-syscall section when the trace
// holds syscall-component records: the lifecycle funnel, the per-mode
// host dispatch breakdown (syscall.exec.<mode> spans), the per-op
// device-observed latency (syscall.call.<op> spans), and the top
// slowest individual calls.
func summarizeSyscalls(tr *obs.ChromeTrace, top int) {
	type opStat struct {
		name    string
		count   int
		total   sim.Time
		longest sim.Time
	}
	counts := map[string]int{}
	modes := map[string]*opStat{}
	ops := map[string]*opStat{}
	var calls []obs.Record
	tally := func(m map[string]*opStat, key string, r *obs.Record) {
		st := m[key]
		if st == nil {
			st = &opStat{name: key}
			m[key] = st
		}
		st.count++
		st.total += r.Dur
		if r.Dur > st.longest {
			st.longest = r.Dur
		}
	}
	for i := range tr.Records {
		r := &tr.Records[i]
		if r.Cat != obs.CatSyscall {
			continue
		}
		switch {
		case r.Kind == obs.KindInstant:
			counts[r.Name]++
		case strings.HasPrefix(r.Name, "syscall.exec."):
			tally(modes, strings.TrimPrefix(r.Name, "syscall.exec."), r)
		case strings.HasPrefix(r.Name, "syscall.call."):
			tally(ops, strings.TrimPrefix(r.Name, "syscall.call."), r)
			calls = append(calls, *r)
		}
	}
	if len(counts) == 0 && len(modes) == 0 && len(ops) == 0 {
		return
	}

	fmt.Printf("\ndevice syscalls\n")
	fmt.Printf("  issued %d, dispatched %d, completed %d; reissued %d, deduped %d, orphaned %d\n",
		counts["syscall.issue"], counts["syscall.dispatch"], counts["syscall.complete"],
		counts["syscall.reissue"], counts["syscall.dedup"], counts["syscall.orphan"])

	rows := func(m map[string]*opStat) []*opStat {
		out := make([]*opStat, 0, len(m))
		for _, st := range m {
			out = append(out, st)
		}
		sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
		return out
	}
	if len(modes) > 0 {
		fmt.Printf("\n  host dispatch by mode (exec spans)\n")
		fmt.Printf("  %-8s %8s %14s %14s %14s\n", "mode", "calls", "busy", "mean", "longest")
		for _, st := range rows(modes) {
			fmt.Printf("  %-8s %8d %14v %14v %14v\n",
				st.name, st.count, st.total, st.total/sim.Time(st.count), st.longest)
		}
	}
	if len(ops) > 0 {
		fmt.Printf("\n  device-observed completion latency by op (call spans)\n")
		fmt.Printf("  %-8s %8s %14s %14s %14s\n", "op", "calls", "total", "mean", "longest")
		for _, st := range rows(ops) {
			fmt.Printf("  %-8s %8d %14v %14v %14v\n",
				st.name, st.count, st.total, st.total/sim.Time(st.count), st.longest)
		}
	}

	if top <= 0 || len(calls) == 0 {
		return
	}
	sort.Slice(calls, func(i, j int) bool {
		if calls[i].Dur != calls[j].Dur {
			return calls[i].Dur > calls[j].Dur
		}
		if calls[i].At != calls[j].At {
			return calls[i].At < calls[j].At
		}
		return calls[i].Shard < calls[j].Shard
	})
	if top > len(calls) {
		top = len(calls)
	}
	fmt.Printf("\n  top %d slowest syscalls (arg is the per-issuer call seq)\n", top)
	fmt.Printf("  %-18s %-12s %14s %14s %10s\n", "name", "shard", "issued", "latency", "call")
	for _, r := range calls[:top] {
		fmt.Printf("  %-18s %-12s %14v %14v %10d\n",
			r.Name, shardLabel(tr, r.Shard), r.At, r.Dur, r.Arg)
	}
}

// criticalPath prints the chan.send → chan.delivered window of one
// message and every channel/bus/host span overlapping it on the same
// shard.
func criticalPath(tr *obs.ChromeTrace, id int64) {
	var send, delivered *obs.Record
	for i := range tr.Records {
		r := &tr.Records[i]
		if r.Arg != id {
			continue
		}
		switch r.Name {
		case "chan.send":
			if send == nil {
				send = r
			}
		case "chan.delivered":
			if delivered == nil {
				delivered = r
			}
		}
	}
	if send == nil {
		log.Fatalf("hydra-trace: no chan.send record for message id %d", id)
	}
	if delivered == nil {
		log.Fatalf("hydra-trace: message id %d was sent but never delivered in this trace", id)
	}
	t0, t1 := send.At, delivered.At
	fmt.Printf("message %d: sent %v, delivered %v — %v in flight (shard %s)\n",
		id, t0, t1, t1-t0, shardLabel(tr, send.Shard))
	fmt.Printf("  %10s %-18s %-10s %14s %10s\n", "t-send", "name", "component", "duration", "arg")
	for i := range tr.Records {
		r := &tr.Records[i]
		if r.Shard != send.Shard {
			continue
		}
		include := false
		switch {
		case r.Kind == obs.KindSpan && r.At <= t1 && r.At+r.Dur >= t0:
			// A span overlapping the flight window: the tx prep, DMA, bus
			// transfer, interrupt segment, and dispatch legs of this (or a
			// concurrently batched) message.
			include = r.Cat == obs.CatChannel || r.Cat == obs.CatBus || r.Cat == obs.CatHost
		case r.Kind == obs.KindInstant && r.Arg == id && r.At >= t0 && r.At <= t1:
			include = true
		case r == send || r == delivered:
			include = true
		}
		if !include {
			continue
		}
		fmt.Printf("  %10v %-18s %-10s %14v %10d\n",
			sim.Time(r.At-t0), r.Name, r.Cat, r.Dur, r.Arg)
	}
}

func shardLabel(tr *obs.ChromeTrace, idx int32) string {
	if name, ok := tr.Labels[idx]; ok {
		return name
	}
	return fmt.Sprintf("#%d", idx)
}
