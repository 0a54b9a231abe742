package main

import "testing"

func simulate(t *testing.T, inst instance, err error) *outcome {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	for inst.step() {
	}
	inst.drain()
	out, err := inst.check()
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func newSpans() *spans { return &spans{ms: make(map[string]float64)} }

// TestSameSeedSameDigest is the determinism check the timed runs leave
// out: one seed reproduces every simulated output, and another seed
// changes them.
func TestSameSeedSameDigest(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			run := func(seed int64) *outcome {
				inst, err := w.build(seed, newSpans())
				return simulate(t, inst, err)
			}
			a, b, c := run(7), run(7), run(8)
			if a.digest != b.digest {
				t.Fatalf("seed 7 gave digests %x and %x", a.digest, b.digest)
			}
			if a.digest == c.digest {
				t.Fatalf("seeds 7 and 8 both gave digest %x", a.digest)
			}
			if a.failed != 0 || a.units == 0 {
				t.Fatalf("%d of %d attempts failed, %d units", a.failed, a.attempted, a.units)
			}
		})
	}
}

// TestDataplaneWorkersAgree checks that the conservative windows give the
// same cell with one window worker as with two.
func TestDataplaneWorkersAgree(t *testing.T) {
	one, err := newDataplane(3, newSpans(), 1)
	serial := simulate(t, one, err)
	two, err := newDataplane(3, newSpans(), 2)
	parallel := simulate(t, two, err)
	if serial.digest != parallel.digest || serial.units != parallel.units {
		t.Fatalf("1 worker: digest %x, %d units; 2 workers: digest %x, %d units",
			serial.digest, serial.units, parallel.digest, parallel.units)
	}
}
