package core

import (
	"runtime"
	"testing"
)

// TestOptionsResolveOnceAtNewSession pins the satellite contract: every
// default resolves exactly once in NewSession, so call sites read final
// values and never re-derive them (0 means "all CPUs", 1 means sequential).
func TestOptionsResolveOnceAtNewSession(t *testing.T) {
	var o Options
	o.defaults()
	if o.Workers != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers default = %d, want GOMAXPROCS=%d", o.Workers, runtime.GOMAXPROCS(0))
	}
	if o.DCThreshold != 0.10 {
		t.Errorf("DCThreshold default = %v, want 0.10", o.DCThreshold)
	}
	one := Options{Workers: 1}
	one.defaults()
	if one.Workers != 1 {
		t.Errorf("Workers=1 must stay sequential, got %d", one.Workers)
	}
	if NewSession(Options{}).opts.Workers <= 0 {
		t.Error("NewSession must resolve Workers")
	}
}
