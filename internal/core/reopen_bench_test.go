package core

import (
	"fmt"
	"testing"
)

// BenchmarkReopenConverged times Open on a durable directory whose FD-bound
// relation is converged — every dirty group checked, so recovery rebuilds
// every fixed cell — with the state in a checkpoint (ckpt) or in the WAL
// alone (wal).
func BenchmarkReopenConverged(b *testing.B) {
	for _, rows := range []int{10_000, 100_000} {
		for _, ckpt := range []bool{false, true} {
			name := fmt.Sprintf("rows=%d/wal", rows)
			if ckpt {
				name = fmt.Sprintf("rows=%d/ckpt", rows)
			}
			b.Run(name, func(b *testing.B) {
				dir := b.TempDir()
				opts := Options{Dir: dir, Strategy: StrategyFull, CheckpointBytes: -1}
				s, err := Open(opts)
				if err != nil {
					b.Fatal(err)
				}
				if err := s.Register(sweepTable(rows/4, rows/20)); err != nil {
					b.Fatal(err)
				}
				if err := s.AddRule(sweepRule()); err != nil {
					b.Fatal(err)
				}
				if _, err := s.Query("SELECT orderkey, suppkey FROM lineorder WHERE orderkey < 1"); err != nil {
					b.Fatal(err)
				}
				if ckpt {
					if err := s.Checkpoint(); err != nil {
						b.Fatal(err)
					}
				}
				want := s.StateFingerprint()
				s.Close()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					s, err := Open(opts)
					if err != nil {
						b.Fatal(err)
					}
					b.StopTimer()
					if i == 0 && s.StateFingerprint() != want {
						b.Fatal("reopened state differs from the converged one")
					}
					s.Close()
					b.StartTimer()
				}
			})
		}
	}
}
