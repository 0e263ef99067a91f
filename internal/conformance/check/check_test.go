package check

import (
	"errors"
	"strings"
	"testing"
)

// fakeTB records Errorf calls and runs cleanups like a finishing test.
type fakeTB struct {
	failures []string
	cleanups []func()
}

func (f *fakeTB) Helper()           {}
func (f *fakeTB) Cleanup(fn func()) { f.cleanups = append(f.cleanups, fn) }
func (f *fakeTB) Errorf(format string, args ...any) {
	f.failures = append(f.failures, format)
}
func (f *fakeTB) finish() {
	for i := len(f.cleanups) - 1; i >= 0; i-- {
		f.cleanups[i]()
	}
}

func TestDisabledByDefault(t *testing.T) {
	if Enabled() {
		t.Fatal("checking enabled before any Enable call")
	}
	// Check must be a no-op: an always-failing invariant reports nothing.
	before := violations.Load()
	Check(func() error { return errors.New("boom") })
	if violations.Load() != before {
		t.Fatal("disabled Check evaluated its invariant")
	}
}

func TestEnableReportsViolations(t *testing.T) {
	tb := &fakeTB{}
	Enable(tb)
	defer tb.finish()

	if !Enabled() {
		t.Fatal("Enable did not switch checking on")
	}
	before := violations.Load()
	Check(
		func() error { return nil },
		func() error { return errors.New("conservation broken") },
	)
	if got := violations.Load() - before; got != 1 {
		t.Fatalf("violations = %d, want 1", got)
	}
	if len(tb.failures) != 1 || !strings.Contains(tb.failures[0], "conformance violation") {
		t.Fatalf("reporter saw %q, want one conformance violation", tb.failures)
	}
}

func TestDisablesWhenLastReporterLeaves(t *testing.T) {
	a, b := &fakeTB{}, &fakeTB{}
	Enable(a)
	Enable(b)
	a.finish()
	if !Enabled() {
		t.Fatal("checking dropped while a reporter is still live")
	}
	b.finish()
	if Enabled() {
		t.Fatal("checking still on after the last reporter left")
	}
}

func TestFailfFansOutToAllReporters(t *testing.T) {
	a, b := &fakeTB{}, &fakeTB{}
	Enable(a)
	Enable(b)
	defer a.finish()
	defer b.finish()

	Failf("law %d broken", 7)
	if len(a.failures) != 1 || len(b.failures) != 1 {
		t.Fatalf("fan-out saw %d/%d failures, want 1/1", len(a.failures), len(b.failures))
	}
}

func TestFailfPanicsWithoutReporter(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Failf without reporter did not panic")
		}
	}()
	Failf("orphaned violation")
}
