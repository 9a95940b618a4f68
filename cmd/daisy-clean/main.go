// Command daisy-clean runs the offline (full-dataset) cleaning baseline over
// a CSV file, printing the probabilistic repair summary and optionally
// writing the most-probable repaired version.
//
// Usage:
//
//	daisy-clean -in dirty.csv -rule 'phi: !(t1.zip=t2.zip & t1.city!=t2.city)' [-rule ...] [-out fixed.csv]
//	daisy-clean -in dirty.csv -rule '...' -dir ./cleandir [-out fixed.csv]
//
// With -dir the clean runs through a durable WAL-backed session instead of
// the one-shot offline pass: registration, rules, and every repair batch are
// journaled into the directory, the full clean runs as a resumable
// background sweep, and a rerun with the same -dir reopens the journal and
// picks up where the previous process — even one killed mid-sweep — left
// off.
//
// Ctrl-C cancels the in-flight cleaning pass cooperatively; the command
// prints the partial metrics accumulated so far and exits cleanly.
package main

import (
	"context"
	"errors"
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
	"daisy/internal/offline"
	"daisy/internal/ptable"
	"daisy/internal/table"
)

type ruleList []string

func (r *ruleList) String() string     { return strings.Join(*r, "; ") }
func (r *ruleList) Set(s string) error { *r = append(*r, s); return nil }

func main() {
	in := flag.String("in", "", "dirty CSV file (header row required)")
	out := flag.String("out", "", "optional output CSV with the most probable repair")
	dir := flag.String("dir", "", "durable session directory: journal the clean (WAL + checkpoints) and resume interrupted runs")
	var rules ruleList
	flag.Var(&rules, "rule", "denial constraint, e.g. 'phi: !(t1.zip=t2.zip & t1.city!=t2.city)' (repeatable)")
	flag.Parse()

	if *in == "" || len(rules) == 0 {
		flag.Usage()
		os.Exit(2)
	}
	name := strings.TrimSuffix(filepath.Base(*in), filepath.Ext(*in))
	t, err := table.ReadCSVFile(name, *in, nil)
	if err != nil {
		fatal(err)
	}
	var parsed []*dc.Constraint
	for _, rtext := range rules {
		c, err := dc.Parse(rtext)
		if err != nil {
			fatal(err)
		}
		parsed = append(parsed, c)
	}
	// Ctrl-C cancels the cleaning pass cooperatively.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *dir != "" {
		if err := cleanDurable(ctx, *dir, t, parsed, *out); err != nil {
			fatal(err)
		}
		return
	}

	pt := ptable.FromTable(t)
	start := time.Now()
	rep, err := (&offline.Cleaner{}).CleanAll(ctx, pt, parsed)
	if errors.Is(err, context.Canceled) {
		fmt.Printf("interrupted after %s; partial work: scanned=%d comparisons=%d repairs=%d\n",
			time.Since(start).Round(time.Millisecond),
			rep.Metrics.Scanned, rep.Metrics.Comparisons, rep.Metrics.Repairs)
		return
	}
	if err != nil {
		fatal(err)
	}
	fmt.Printf("cleaned %s: %d rows, %d violating groups, %d violating pairs, %d cells updated in %s\n",
		*in, t.Len(), rep.ViolatingGroups, rep.ViolatingPairs, rep.UpdatedCells,
		time.Since(start).Round(time.Millisecond))
	fmt.Printf("work: scanned=%d comparisons=%d repairs=%d\n",
		rep.Metrics.Scanned, rep.Metrics.Comparisons, rep.Metrics.Repairs)
	if *out != "" {
		if err := pt.MostProbable().WriteCSVFile(*out); err != nil {
			fatal(err)
		}
		fmt.Printf("most probable repair written to %s\n", *out)
	}
}

// cleanDurable runs the full clean through a WAL-backed session rooted at
// dir. A fresh directory journals the registration image and rules first; a
// reopened one recovers the previous run's state (including a sweep killed
// mid-flight, which resumes from its checked-set bookkeeping) and skips
// re-registration. Each rule's clean runs as a background sweep; the command
// waits for quiescence, so on clean exit the directory holds the fully
// cleaned, reopenable state.
func cleanDurable(ctx context.Context, dir string, t *table.Table, rules []*dc.Constraint, out string) error {
	s, err := core.Open(core.Options{Dir: dir, Strategy: core.StrategyIncremental})
	if err != nil {
		return err
	}
	defer s.Close()
	if s.Table(t.Name) == nil {
		if err := s.Register(t); err != nil {
			return err
		}
	} else {
		fmt.Printf("daisy-clean: resuming durable session in %s (%s already registered)\n", dir, t.Name)
	}
	have := make(map[string]bool)
	for _, c := range s.Rules() {
		have[c.Name] = true
	}
	for _, c := range rules {
		if have[c.Name] {
			continue
		}
		if err := s.AddRule(c); err != nil {
			return err
		}
	}
	start := time.Now()
	for _, c := range rules {
		s.CleanInBackground(t.Name, c.Name)
	}
	if err := s.WaitCleaning(ctx); err != nil {
		if errors.Is(err, context.Canceled) {
			for _, job := range s.CleaningStatus() {
				fmt.Printf("interrupted: sweep %s/%s %v %d/%d rows, %d groups repaired — rerun with the same -dir to resume\n",
					job.Table, job.Rule, job.State, job.RowsDone, job.RowsTotal, job.GroupsCleaned)
			}
			return nil
		}
		return err
	}
	var groups int64
	for _, job := range s.CleaningStatus() {
		groups += int64(job.GroupsCleaned)
	}
	fmt.Printf("cleaned %s durably in %s: %d rows, %d rules, %d groups repaired by sweeps, epoch %d, journal in %s\n",
		t.Name, time.Since(start).Round(time.Millisecond), t.Len(), len(rules), groups, s.Epoch(), dir)
	if out != "" {
		if err := s.Table(t.Name).MostProbable().WriteCSVFile(out); err != nil {
			return err
		}
		fmt.Printf("most probable repair written to %s\n", out)
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "daisy-clean:", err)
	os.Exit(1)
}
