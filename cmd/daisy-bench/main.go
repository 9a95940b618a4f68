// Command daisy-bench regenerates the paper's tables and figures and runs
// the durability, fault-injection and serving smokes CI drives. Performance
// is measured by the benchmark in ./bench (go run ./bench), not here.
//
// Usage:
//
//	daisy-bench -exp fig5            # one experiment
//	daisy-bench -exp all             # everything, paper order
//	daisy-bench -exp fig7 -scale 0.5 # smaller datasets
//	daisy-bench -exp durability -dir /tmp/d -phase run     # durable workload + sweep
//	daisy-bench -exp durability -dir /tmp/d -phase verify  # reopen, resume, check
//	daisy-bench -exp faults                                # ENOSPC mid-load, heal, verify
//	daisy-bench -exp serve -parallel 8 -queries 4000       # closed-loop HTTP load + drain check
//
// Experiment ids: fig5..fig13, table5..table8, all, durability, faults,
// serve.
//
// The durability experiment is the crash-recovery smoke: -phase run opens a
// durable session in -dir, registers a seeded dirty relation, runs queries,
// starts a background sweep, prints `sweep_running=true`, and waits for
// quiescence — CI SIGKILLs it at that marker, mid-sweep. -phase verify
// reopens the directory (replaying WAL and resuming the sweep), waits for
// quiescence, and compares the recovered state fingerprint against an
// uninterrupted in-memory oracle run of the same workload, printing
// `fingerprint_match=true` on success. After its own clean shutdown the
// verify phase also scans the directory for leftover half-published `.tmp`
// checkpoint files and exits non-zero if any remain.
//
// The faults experiment is the degraded-operation smoke: it runs a durable
// workload through an injected ENOSPC (every WAL and checkpoint write fails
// mid-load), confirms the session degrades instead of dying, keeps working
// from memory, heals the disk, re-attaches via a fresh checkpoint, and then
// proves a clean reopen reproduces the exact final state, printing
// `fingerprint_match=true` on success.
//
// The serve experiment is the serving smoke: -parallel closed-loop clients
// send -queries mixed query and background-clean requests to an in-process
// server or a running daisy-serve (-url) and check that every response body
// ends with its trailer (`bodies_complete=true`). -phase verify -dir reopens
// a durable tenant root afterwards and compares it with an in-memory oracle
// run.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"daisy/internal/core"
	"daisy/internal/dc"
	"daisy/internal/experiments"
	"daisy/internal/schema"
	"daisy/internal/table"
	"daisy/internal/value"
	"daisy/internal/vfs"
)

func main() {
	exp := flag.String("exp", "all", "experiment id (fig5..fig13, table5..table8, all, durability, faults, serve)")
	scale := flag.Float64("scale", 1.0, "dataset scale factor (1.0 = full laptop scale)")
	seed := flag.Int64("seed", 42, "workload seed")
	parallel := flag.Int("parallel", 1, "serve: number of concurrent clients (also the in-process server's inflight bound)")
	queries := flag.Int("queries", 400, "serve: total operations across all clients")
	rows := flag.Int("rows", 20000, "durability/faults/serve: relation size")
	dir := flag.String("dir", "", "durability/serve: WAL/checkpoint directory (serve: tenant root)")
	phase := flag.String("phase", "run", "durability/serve: run|verify")
	url := flag.String("url", "", "serve: target a running daisy-serve instead of an in-process server")
	flag.Parse()

	// Ctrl-C cancels in-flight queries through the context path.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var smoke func() error
	switch *exp {
	case "durability":
		smoke = func() error { return runDurability(ctx, *dir, *phase, *rows) }
	case "faults":
		smoke = func() error { return runFaults(ctx, *dir, *rows) }
	case "serve":
		smoke = func() error { return runServe(ctx, *parallel, *queries, *rows, *dir, *url, *phase) }
	}
	if smoke != nil {
		if err := smoke(); err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
		return
	}

	cfg := experiments.Config{Scale: *scale, Seed: *seed}
	start := time.Now()
	if *exp == "all" {
		reports, err := experiments.All(cfg)
		for _, r := range reports {
			fmt.Println(r)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
	} else {
		run, ok := experiments.ByID(*exp)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *exp)
			os.Exit(2)
		}
		r, err := run(cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
		fmt.Println(r)
	}
	fmt.Printf("total wall time: %s\n", time.Since(start).Round(time.Millisecond))
}

// durabilityTable builds the durability experiment's relation: zip groups of
// four rows, every group carrying one row-unique typo, so both the query
// repairs and the background sweep have deterministic work in every group.
func durabilityTable(rows int) *table.Table {
	sch := schema.MustNew(
		schema.Column{Name: "zip", Kind: value.Int},
		schema.Column{Name: "city", Kind: value.String},
	)
	groups := rows / 4
	tb := table.New("cities", sch)
	for i := 0; i < rows; i++ {
		city := "City-" + fmt.Sprint(i%groups)
		if i%4 == 3 {
			city = "Typo-" + fmt.Sprint(i)
		}
		tb.MustAppend(table.Row{value.NewInt(int64(i % groups)), value.NewString(city)})
	}
	return tb
}

// runDurability is the crash-recovery smoke behind CI's durability job. The
// run phase journals a deterministic workload (register + FD rule + range
// queries) into -dir, starts a full background sweep, announces
// sweep_running=true, and waits — the harness SIGKILLs it there, mid-sweep.
// The verify phase reopens the directory: recovery replays the WAL, resumes
// the interrupted sweep from its checked-set bookkeeping, and after
// quiescence the durable state fingerprint must equal an uninterrupted
// in-memory oracle run of the same workload.
func runDurability(ctx context.Context, dir, phase string, rows int) error {
	if dir == "" {
		return fmt.Errorf("durability: -dir is required")
	}
	if rows < 400 {
		return fmt.Errorf("durability: -rows must be >= 400")
	}
	queries := []string{
		"SELECT zip, city FROM cities WHERE zip < 50",
		"SELECT zip, city FROM cities WHERE zip >= 50 AND zip < 100",
	}
	rule := func() *dc.Constraint { return dc.FD("phi", "cities", "city", "zip") }
	workload := func(s *core.Session) error {
		if s.Table("cities") == nil {
			if err := s.Register(durabilityTable(rows)); err != nil {
				return err
			}
			if err := s.AddRule(rule()); err != nil {
				return err
			}
		}
		for _, q := range queries {
			rs, err := s.QueryContext(ctx, q)
			if err != nil {
				return err
			}
			rs.Close()
		}
		s.CleanInBackground("cities", "phi")
		return nil
	}
	switch phase {
	case "run":
		s, err := core.Open(core.Options{Dir: dir, Strategy: core.StrategyIncremental})
		if err != nil {
			return err
		}
		defer s.Close()
		if err := workload(s); err != nil {
			return err
		}
		// The marker the harness kills on: the sweep is live past this line.
		fmt.Printf("durability: sweep_running=true dir=%s rows=%d\n", dir, rows)
		if err := s.WaitCleaning(ctx); err != nil {
			return err
		}
		fmt.Println("durability: sweep completed without interruption")
		return nil
	case "verify":
		s, err := core.Open(core.Options{Dir: dir, Strategy: core.StrategyIncremental})
		if err != nil {
			return err
		}
		defer s.Close()
		resumed := len(s.CleaningStatus())
		// Re-requesting the sweep is a no-op when recovery already resumed
		// it, and covers the window where the kill landed after quiescence.
		s.CleanInBackground("cities", "phi")
		if err := s.WaitCleaning(ctx); err != nil {
			return err
		}
		got := s.StateFingerprint()

		oracle := core.NewSession(core.Options{Strategy: core.StrategyIncremental})
		defer oracle.Close()
		if err := workload(oracle); err != nil {
			return err
		}
		if err := oracle.WaitCleaning(ctx); err != nil {
			return err
		}
		want := oracle.StateFingerprint()
		fmt.Printf("durability: resumed_jobs=%d epoch=%d fingerprint_match=%v\n",
			resumed, s.Epoch(), got == want)
		if got != want {
			return fmt.Errorf("durability: recovered state diverged from the oracle run")
		}
		// A clean shutdown must leave no half-published checkpoint behind —
		// every .tmp is either renamed into place or removed on the error
		// path. (Before this Close, a leftover is legitimate: the run phase
		// was SIGKILLed and may have died mid-publication.)
		s.Close()
		leftovers, err := filepath.Glob(filepath.Join(dir, "*.tmp"))
		if err != nil {
			return err
		}
		if len(leftovers) > 0 {
			return fmt.Errorf("durability: %d leftover .tmp checkpoint file(s) after clean shutdown: %v",
				len(leftovers), leftovers)
		}
		fmt.Println("durability: clean shutdown left no .tmp files")
		return nil
	default:
		return fmt.Errorf("durability: unknown -phase %q (run|verify)", phase)
	}
}

// runFaults is the degraded-operation smoke behind CI's chaos job: a durable
// workload hits a full disk mid-load (every WAL and checkpoint write returns
// ENOSPC), the session degrades rather than dying, serves further mutating
// work from memory, and — once the fault clears — re-attaches through a
// fresh full checkpoint. A clean reopen of the directory must then reproduce
// the exact final state: the degraded window lost nothing that survived to
// re-attach.
func runFaults(ctx context.Context, dir string, rows int) error {
	if dir == "" {
		tmp, err := os.MkdirTemp("", "daisy-faults-*")
		if err != nil {
			return err
		}
		defer os.RemoveAll(tmp)
		dir = tmp
	}
	if rows < 800 {
		return fmt.Errorf("faults: -rows must be >= 800")
	}
	ffs := vfs.NewFaultFS(vfs.OS{})
	s, err := core.Open(core.Options{
		Dir:      dir,
		Strategy: core.StrategyIncremental,
		FS:       ffs,
		// Degrade on the first failed append: the smoke tests the degraded
		// path, not the retry loop (the core chaos suite covers retries).
		WALRetries: -1,
	})
	if err != nil {
		return err
	}
	defer s.Close()
	if err := s.Register(durabilityTable(rows)); err != nil {
		return err
	}
	if err := s.AddRule(dc.FD("phi", "cities", "city", "zip")); err != nil {
		return err
	}
	query := func(lo, hi int) error {
		q := fmt.Sprintf("SELECT zip, city FROM cities WHERE zip >= %d AND zip < %d", lo, hi)
		rs, err := s.QueryContext(ctx, q)
		if err != nil {
			return err
		}
		rs.Close()
		return nil
	}
	// Healthy load: the first query's repairs journal normally.
	if err := query(0, 50); err != nil {
		return err
	}

	// Disk fills mid-load: every WAL and checkpoint write now fails.
	ffs.Arm(vfs.Fault{
		Count: -1,
		Err:   vfs.ENOSPC("disk"),
		Match: func(op vfs.Op, name string) bool {
			base := filepath.Base(name)
			return op == vfs.OpWrite &&
				(strings.HasPrefix(base, "wal-") || strings.HasPrefix(base, "ckpt-"))
		},
	})
	if err := query(50, 100); err != nil {
		return fmt.Errorf("faults: query under ENOSPC must degrade, not fail: %w", err)
	}
	if st := s.DurabilityState(); st != core.DurabilityDegraded {
		return fmt.Errorf("faults: state after failed append = %s, want degraded", st)
	}
	fmt.Printf("faults: injected=ENOSPC state=%s err=%q\n",
		s.DurabilityState(), s.DurabilityError())
	// Degraded service: mutating queries keep working from memory.
	if err := query(100, 150); err != nil {
		return fmt.Errorf("faults: degraded session refused memory-only work: %w", err)
	}

	// Disk heals; a full checkpoint covers the degraded window and re-attaches.
	ffs.Disarm()
	if err := s.Checkpoint(); err != nil {
		return fmt.Errorf("faults: re-attach checkpoint failed: %w", err)
	}
	if st := s.DurabilityState(); st != core.DurabilityReattached && st != core.DurabilityHealthy {
		return fmt.Errorf("faults: state after heal = %s, want reattached", st)
	}
	fmt.Printf("faults: healed state=%s faults_fired=%d\n", s.DurabilityState(), ffs.Fired())

	// Post-heal load journals into the fresh log; quiesce and snapshot.
	if err := query(150, 200); err != nil {
		return err
	}
	s.CleanInBackground("cities", "phi")
	if err := s.WaitCleaning(ctx); err != nil {
		return err
	}
	want := s.StateFingerprint()
	s.Close()

	// The proof: a clean reopen replays to the exact final state.
	r, err := core.Open(core.Options{Dir: dir, Strategy: core.StrategyIncremental})
	if err != nil {
		return err
	}
	defer r.Close()
	got := r.StateFingerprint()
	fmt.Printf("faults: rows=%d ops=%d fingerprint_match=%v\n", rows, ffs.Ops(), got == want)
	if got != want {
		return fmt.Errorf("faults: recovered state diverged from the pre-close state")
	}
	return nil
}
