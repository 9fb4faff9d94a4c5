package lint_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fcae/internal/lint"
)

// checkFixture writes files into a throwaway module, loads it, and runs a
// single analyzer over it. Map keys are module-relative paths.
func checkFixture(t *testing.T, a *lint.Analyzer, files map[string]string) []lint.Diagnostic {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "go.mod"), []byte("module fixture\n\ngo 1.22\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for name, src := range files {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	pkgs, err := lint.LoadModule(dir)
	if err != nil {
		t.Fatalf("LoadModule: %v", err)
	}
	return lint.Check(pkgs, []*lint.Analyzer{a})
}

func wantFindings(t *testing.T, diags []lint.Diagnostic, substrs ...string) {
	t.Helper()
	if len(diags) != len(substrs) {
		t.Fatalf("got %d findings, want %d:\n%s", len(diags), len(substrs), render(diags))
	}
	for i, sub := range substrs {
		if !strings.Contains(diags[i].Message, sub) {
			t.Errorf("finding %d = %q, want substring %q", i, diags[i].Message, sub)
		}
	}
}

func wantClean(t *testing.T, diags []lint.Diagnostic) {
	t.Helper()
	if len(diags) != 0 {
		t.Fatalf("got %d findings on good fixture, want 0:\n%s", len(diags), render(diags))
	}
}

func render(diags []lint.Diagnostic) string {
	var b strings.Builder
	for _, d := range diags {
		b.WriteString("  " + d.String() + "\n")
	}
	return b.String()
}

func TestMutexGuardBad(t *testing.T) {
	t.Parallel()
	diags := checkFixture(t, lint.MutexGuard, map[string]string{
		"p.go": `package p

import "sync"

type store struct {
	cfg int // before mu: immutable after construction
	mu  sync.Mutex
	n   int
	m   map[string]int
}

func (s *store) Bump() { s.n++ }

func (s *store) Peek() (int, int) { return s.cfg, s.n }
`,
	})
	wantFindings(t, diags,
		`store.Bump accesses mu-guarded field "n"`,
		`store.Peek accesses mu-guarded field "n"`,
	)
}

func TestMutexGuardGood(t *testing.T) {
	t.Parallel()
	diags := checkFixture(t, lint.MutexGuard, map[string]string{
		"p.go": `package p

import "sync"

type store struct {
	cfg int
	mu  sync.RWMutex
	n   int
}

func (s *store) Bump() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.n++
}

func (s *store) Read() int {
	s.mu.RLock()
	return s.n
}

func (s *store) bumpLocked() { s.n++ }

func (s *store) Cfg() int { return s.cfg }

type plain struct{ n int }

func (p *plain) Bump() { p.n++ }
`,
	})
	wantClean(t, diags)
}

func TestObsCallbackBad(t *testing.T) {
	t.Parallel()
	diags := checkFixture(t, lint.ObsCallback, map[string]string{
		"p.go": `package p

import "sync"

type Event struct{}

type EventListener interface {
	FlushBegin(Event)
	FlushEnd(Event)
}

type db struct {
	mu       sync.Mutex
	listener EventListener
}

func (d *db) underLock() {
	d.mu.Lock()
	d.listener.FlushBegin(Event{})
	d.mu.Unlock()
}

// A deferred Unlock runs at return; the call is still under the lock.
func (d *db) deferredUnlock() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.listener.FlushEnd(Event{})
}

// The *Locked suffix declares the caller holds mu on entry.
func (d *db) emitLocked() {
	d.listener.FlushBegin(Event{})
}
`,
	})
	wantFindings(t, diags,
		"underLock invokes EventListener method FlushBegin while mu is held",
		"deferredUnlock invokes EventListener method FlushEnd while mu is held",
		"emitLocked invokes EventListener method FlushBegin while mu is held",
	)
}

func TestObsCallbackGood(t *testing.T) {
	t.Parallel()
	diags := checkFixture(t, lint.ObsCallback, map[string]string{
		"p.go": `package p

import "sync"

type Event struct{}

type EventListener interface {
	FlushBegin(Event)
	FlushEnd(Event)
}

type db struct {
	mu       sync.Mutex
	evMu     sync.Mutex
	listener EventListener
	pending  []func(EventListener)
}

// The sanctioned pattern: sequence under mu, deliver after Unlock. The
// queued closure is a fresh body — listener calls inside it are legal even
// though the literal appears while mu is held.
func (d *db) queueAndDrain() {
	d.mu.Lock()
	ev := Event{}
	d.pending = append(d.pending, func(l EventListener) { l.FlushBegin(ev) })
	batch := d.pending
	d.pending = nil
	d.mu.Unlock()
	for _, fn := range batch {
		fn(d.listener)
	}
}

// Calling the listener after a visible Unlock is fine, as is holding a
// differently-named mutex (evMu serializes delivery by design).
func (d *db) deliver() {
	d.evMu.Lock()
	defer d.evMu.Unlock()
	d.mu.Lock()
	ev := Event{}
	d.mu.Unlock()
	d.listener.FlushEnd(ev)
}

// No mutex in scope at all.
func emit(l EventListener) { l.FlushBegin(Event{}) }

// Re-acquiring after delivery keeps later queue appends legal.
func (d *db) relock() {
	d.mu.Lock()
	d.mu.Unlock()
	d.listener.FlushBegin(Event{})
	d.mu.Lock()
	d.pending = nil
	d.mu.Unlock()
}
`,
	})
	wantClean(t, diags)
}

func TestErrWrapBad(t *testing.T) {
	t.Parallel()
	diags := checkFixture(t, lint.ErrWrap, map[string]string{
		"p.go": `package p

import "fmt"

type codedErr struct{ code int }

func (e *codedErr) Error() string { return "coded" }

func open(name string) error { return nil }

func bad(name string) error {
	if err := open(name); err != nil {
		return fmt.Errorf("open %s: %v", name, err)
	}
	return fmt.Errorf("coded: %s", &codedErr{1})
}
`,
	})
	wantFindings(t, diags,
		"error err formatted into fmt.Errorf without %w",
		"error &codedErr{…} formatted into fmt.Errorf without %w",
	)
}

func TestErrWrapGood(t *testing.T) {
	t.Parallel()
	diags := checkFixture(t, lint.ErrWrap, map[string]string{
		"p.go": `package p

import "fmt"

func open(name string) error { return nil }

func good(name string, n int) error {
	if err := open(name); err != nil {
		return fmt.Errorf("open %s: %w", name, err)
	}
	return fmt.Errorf("bad count %d for %s", n, name)
}
`,
	})
	wantClean(t, diags)
}

func TestBufAliasBad(t *testing.T) {
	t.Parallel()
	diags := checkFixture(t, lint.BufAlias, map[string]string{
		"p.go": `package p

type iter struct{ k, v []byte }

func (i *iter) Key() []byte   { return i.k }
func (i *iter) Value() []byte { return i.v }
func (i *iter) Next()         {}

type holder struct{ k []byte }

func storeField(it *iter, h *holder) { h.k = it.Key() }

func returnRaw(it *iter) []byte { return it.Value() }

func appendElem(it *iter, s [][]byte) [][]byte { return append(s, it.Key()) }

func useAfterNext(it *iter) int {
	k := it.Key()
	it.Next()
	return len(k)
}
`,
	})
	wantFindings(t, diags,
		"view stored into field h.k",
		"returning raw it.Value()",
		"view appended as an element",
		"k read after it.Next/Prev",
	)
}

func TestBufAliasGood(t *testing.T) {
	t.Parallel()
	diags := checkFixture(t, lint.BufAlias, map[string]string{
		"p.go": `package p

type iter struct{ k, v []byte }

func (i *iter) Key() []byte   { return i.k }
func (i *iter) Value() []byte { return i.v }
func (i *iter) Next()         {}
func (i *iter) Valid() bool   { return len(i.k) > 0 }

type holder struct{ k []byte }

// Copying into an owned buffer is the sanctioned pattern.
func storeCopy(it *iter, h *holder) { h.k = append(h.k[:0], it.Key()...) }

// Forwarding iterators keep the documented view lifetime.
type wrap struct{ it *iter }

func (w *wrap) Key() []byte   { return w.it.Key() }
func (w *wrap) Value() []byte { return w.it.Value() }
func (w *wrap) Next()         { w.it.Next() }

// The canonical scan loop: the view never outlives an iteration because
// the post-statement Next precedes the body in source order.
func scan(it *iter) int {
	n := 0
	for ; it.Valid(); it.Next() {
		k := it.Key()
		n += len(k)
	}
	return n
}

// Re-binding the local after Next starts a fresh view.
func rebind(it *iter) int {
	k := it.Key()
	n := len(k)
	it.Next()
	k = it.Key()
	return n + len(k)
}

// Transient use inside an expression is fine.
func transient(it *iter) int { return len(it.Key()) }
`,
	})
	wantClean(t, diags)
}

func TestUncheckedCloseBad(t *testing.T) {
	t.Parallel()
	diags := checkFixture(t, lint.UncheckedClose, map[string]string{
		"p.go": `package p

type file struct{}

func (f *file) Close() error { return nil }
func (f *file) Flush() error { return nil }
func (f *file) Sync() error  { return nil }

func bad(f *file) {
	f.Flush()
	f.Sync()
	f.Close()
}
`,
	})
	wantFindings(t, diags,
		"f.Flush() error is silently dropped",
		"f.Sync() error is silently dropped",
		"f.Close() error is silently dropped",
	)
}

func TestUncheckedCloseGood(t *testing.T) {
	t.Parallel()
	diags := checkFixture(t, lint.UncheckedClose, map[string]string{
		"p.go": `package p

type file struct{}

func (f *file) Close() error { return nil }

type quiet struct{}

func (q *quiet) Close() {}

func handled(f *file) error { return f.Close() }

func acknowledged(f *file) { _ = f.Close() }

func deferred(f *file) { defer f.Close() }

func voidClose(q *quiet) { q.Close() }
`,
	})
	wantClean(t, diags)
}

func TestCycleFlowBad(t *testing.T) {
	t.Parallel()
	diags := checkFixture(t, lint.CycleFlow, map[string]string{
		"internal/core/p.go": `package core

type stats struct{ kernelCycles uint64 }

func bump(s *stats, n uint64) {
	s.kernelCycles += n
}

func double(cycles uint64) uint64 {
	return cycles * 2
}

func tick() uint64 {
	busy := uint64(0)
	busy++
	return busy
}
`,
	})
	if len(diags) != 3 {
		t.Fatalf("got %d findings, want 3:\n%s", len(diags), render(diags))
	}
	for _, d := range diags {
		if !strings.Contains(d.Message, "//fcae:cycle-accounting") {
			t.Errorf("finding %q should point at the directive", d.Message)
		}
	}
}

func TestCycleFlowGood(t *testing.T) {
	t.Parallel()
	diags := checkFixture(t, lint.CycleFlow, map[string]string{
		"internal/core/p.go": `package core

type stats struct{ kernelCycles uint64 }

// bump charges n device cycles to the kernel counter.
//
//fcae:cycle-accounting
func bump(s *stats, n uint64) {
	s.kernelCycles += n
}

// Reading a counter without arithmetic is always allowed.
func read(s *stats) uint64 { return s.kernelCycles }
`,
		// Outside internal/core the analyzer is silent entirely.
		"other.go": `package fixture

func free(cycles uint64) uint64 { return cycles * 2 }
`,
	})
	wantClean(t, diags)
}

// TestLoadFollowsBuildConstraints: two files that define one function
// under opposite build constraints load as the host builds them, one of
// them, instead of failing the type check as a redeclaration.
func TestLoadFollowsBuildConstraints(t *testing.T) {
	dir := t.TempDir()
	for name, src := range map[string]string{
		"go.mod":     "module fixture\n\ngo 1.22\n",
		"a.go":       "package a\n\nfunc A() int { return b() }\n",
		"b_unix.go":  "//go:build unix\n\npackage a\n\nfunc b() int { return 1 }\n",
		"b_other.go": "//go:build !unix\n\npackage a\n\nfunc b() int { return 2 }\n",
	} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	pkgs, err := lint.LoadModule(dir)
	if err != nil {
		t.Fatalf("LoadModule: %v", err)
	}
	if len(pkgs) != 1 || len(pkgs[0].Files) != 2 {
		t.Fatalf("loaded %d packages, want one of two files", len(pkgs))
	}
}

// TestRepoClean is the acceptance gate: the production tree must carry
// zero findings. It runs the full suite exactly as cmd/fcaelint does.
func TestRepoClean(t *testing.T) {
	t.Parallel()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	root, err := lint.FindModuleRoot(wd)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := lint.LoadModule(root)
	if err != nil {
		t.Fatalf("LoadModule: %v", err)
	}
	diags := lint.Check(pkgs, lint.Analyzers())
	if len(diags) != 0 {
		t.Fatalf("fcaelint found %d issue(s) in the repo:\n%s", len(diags), render(diags))
	}
}
