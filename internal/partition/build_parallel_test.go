package partition

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// TestBuildParallelMatchesSerial: the worker-pool Build must be
// byte-for-byte identical to a single-worker build — same fragments,
// same boundary stats, same watcher lists — for any assignment.
func TestBuildParallelMatchesSerial(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	for _, nn := range []int{100, 3000} { // below and above the serial cutoff
		g := randomGraph(r, nn, 4*nn)
		for _, n := range []int{1, 3, 16} {
			assign, err := randomAssign(g, n, r)
			if err != nil {
				t.Fatal(err)
			}
			serial, err := buildWorkers(g, assign, n, 1)
			if err != nil {
				t.Fatal(err)
			}
			parallel, err := buildWorkers(g, assign, n, 8)
			if err != nil {
				t.Fatal(err)
			}
			if serial.vf != parallel.vf || serial.ef != parallel.ef {
				t.Fatalf("|V|=%d n=%d: boundary stats diverge: vf %d/%d ef %d/%d",
					nn, n, serial.vf, parallel.vf, serial.ef, parallel.ef)
			}
			for i := range serial.Frags {
				a, b := serial.Frags[i], parallel.Frags[i]
				if !reflect.DeepEqual(a.Local, b.Local) || !reflect.DeepEqual(a.Virtual, b.Virtual) ||
					!reflect.DeepEqual(a.InNodes, b.InNodes) || !reflect.DeepEqual(a.InWatchers, b.InWatchers) ||
					a.numEdges != b.numEdges || a.numCrossing != b.numCrossing {
					t.Fatalf("|V|=%d n=%d: fragment %d diverges between serial and parallel build", nn, n, i)
				}
				if d := indexDiff(a.Index(), b.Index()); d != "" {
					t.Fatalf("|V|=%d n=%d: fragment %d's index diverges between serial and parallel build: %s", nn, n, i, d)
				}
			}
			if err := parallel.Validate(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// BenchmarkBuild256 measures the worker-pool speedup for the 256-site
// reference fragmentation.
func BenchmarkBuild256(b *testing.B) {
	r := rand.New(rand.NewSource(7))
	g := localityGraph(r, 100_000, 500_000, 40)
	assign, err := randomAssign(g, 256, r)
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 4, 0} { // 0 = GOMAXPROCS via Build
		name := fmt.Sprintf("workers=%d", workers)
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				var fr *Fragmentation
				var err error
				if workers == 0 {
					fr, err = Build(g, assign, 256)
				} else {
					fr, err = buildWorkers(g, assign, 256, workers)
				}
				if err != nil || fr.NumFragments() != 256 {
					b.Fatal(err)
				}
			}
		})
	}
}
