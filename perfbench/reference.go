package main

import "container/heap"

// The host this benchmark runs on is shared: its speed drifts by ±20%
// over minutes as neighbours come and go, and the drift moves process
// CPU time as well as wall time. Every repetition therefore also times a
// fixed reference job, built only from the standard library and never
// changed by the simulator's code, before and after its workload. Host
// times are reported scaled to a machine on which the reference takes
// refNominal CPU seconds, which cancels the drift the two share.

// refNominal is the reference job's CPU time on a quiet host.
const refNominal = 0.090

// normalise converts CPU seconds measured next to a reference job that
// took refS CPU seconds into reference-machine seconds.
func normalise(cpuS, refS float64) float64 { return cpuS * refNominal / refS }

type refEvent struct {
	at uint64
	fn func()
}

type refQueue []refEvent

func (q refQueue) Len() int           { return len(q) }
func (q refQueue) Less(i, j int) bool { return q[i].at < q[j].at }
func (q refQueue) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *refQueue) Push(x any)        { *q = append(*q, x.(refEvent)) }
func (q *refQueue) Pop() any {
	old := *q
	e := old[len(old)-1]
	*q = old[:len(old)-1]
	return e
}

var refSink uint64

// reference runs the fixed job and returns its CPU seconds. It mixes the
// work the simulator spends its time on: a heap-ordered queue of closure
// events, a churning map of 13-byte flow keys, small allocations, and a
// buffer regrown by allocate-and-copy, as the NAS does on every append.
func reference() float64 {
	c0 := processCPU()
	q := &refQueue{}
	for i := 0; i < 1024; i++ {
		heap.Push(q, refEvent{at: uint64(i)})
	}
	flows := make(map[[13]byte]uint64)
	var keep [][]byte
	var seq, sum uint64
	for n := 0; n < 50_000; n++ {
		e := heap.Pop(q).(refEvent)
		if e.fn != nil {
			e.fn()
		}
		seq = seq*6364136223846793005 + 1442695040888963407
		var k [13]byte
		for j := range k {
			k[j] = byte(seq >> (j * 4))
		}
		k[12] &= 7
		flows[k]++
		if len(flows) > 4096 {
			for old := range flows {
				delete(flows, old)
				break
			}
		}
		b := make([]byte, 64+seq%256)
		b[0] = byte(n)
		if keep = append(keep, b); len(keep) > 512 {
			keep = keep[:0]
		}
		v := seq
		heap.Push(q, refEvent{at: e.at + 1 + seq%1000, fn: func() { sum += v }})
	}
	var file []byte
	for n := 0; n < 128; n++ {
		grown := make([]byte, len(file)+4096)
		copy(grown, file)
		grown[len(file)] = byte(n)
		file = grown
	}
	refSink += sum + uint64(file[4096])
	return processCPU() - c0
}
