// Command chan-saturate drives one cell of the X7 channel-saturation
// experiment with user-chosen knobs: a programmable NIC streams MTU-sized
// messages device→host while the descriptor ring batches completions and
// coalesces interrupts. It prints (or emits as JSON) the host cost of
// receiving the stream — cycles per message, delivery latency, interrupts,
// bus transactions — so batching policies can be compared interactively:
//
//	chan-saturate -rate 50000 -batch 1
//	chan-saturate -rate 50000 -batch 32 -coalesce 500us
//
// The full X7 rate × policy grid is `hydra-bench -scenario x7`.
//
// With -trace FILE the cell runs with the virtual-time recorder attached
// and writes the trace — Chrome trace-event JSON (load it in Perfetto),
// or CSV when FILE ends in .csv. cmd/hydra-trace summarizes the file.
//
// Usage:
//
//	chan-saturate [-rate N] [-batch N] [-coalesce DUR] [-seconds N]
//	              [-seed N] [-json] [-trace out.json]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"hydra/internal/experiments"
	"hydra/internal/obs"
	"hydra/internal/sim"
)

func main() {
	rate := flag.Int("rate", 50_000, "message rate (messages per simulated second)")
	batch := flag.Int("batch", 32, "descriptor completions per batch (1 = per-message delivery)")
	coalesce := flag.Duration("coalesce", 500*time.Microsecond, "interrupt-coalescing timeout (virtual time)")
	seconds := flag.Float64("seconds", experiments.X7Duration.Float64Seconds(), "simulated seconds")
	seed := flag.Int64("seed", experiments.DefaultSeed, "simulation seed")
	jsonOut := flag.Bool("json", false, "emit machine-readable JSON on stdout")
	tracePath := flag.String("trace", "", "record a virtual-time trace of the cell and write it here (.json Chrome trace-event, .csv CSV)")
	flag.Parse()

	duration := sim.Seconds(*seconds)
	var trace *obs.Config
	if *tracePath != "" {
		trace = &obs.Config{}
	}
	row, tr, err := experiments.RunSaturationCell(*seed, duration, *rate, *batch, sim.Time(*coalesce), trace)
	if err != nil {
		log.Fatal(err)
	}
	if *tracePath != "" {
		if err := tr.WriteFile(*tracePath); err != nil {
			log.Fatal(err)
		}
		if dropped := tr.Dropped(); dropped > 0 {
			fmt.Fprintf(os.Stderr, "chan-saturate: trace ring overflowed, oldest %d records dropped\n", dropped)
		}
	}
	rendered := fmt.Sprintf(
		"chan-saturate: %d msgs/s × %v, batch %d, coalesce %v (seed %d)\n"+
			"  delivered:    %d of %d sent\n"+
			"  cycles/msg:   %.0f host cycles\n"+
			"  latency:      mean %.4f ms, max %.4f ms\n"+
			"  interrupts:   %d (%d batches, %d coalesce-timer flushes)\n"+
			"  bus:          %d transactions\n"+
			"  simulator:    %d events fired\n",
		*rate, duration, *batch, sim.Time(*coalesce), *seed,
		row.Delivered, row.Sent, row.CyclesPerMsg,
		row.MeanLatencyMS, row.MaxLatencyMS,
		row.Interrupts, row.Batches, row.CoalesceFlushes,
		row.BusTransactions, row.EventsFired)
	if !*jsonOut {
		fmt.Print(rendered)
		return
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(row); err != nil {
		log.Fatal(err)
	}
}
