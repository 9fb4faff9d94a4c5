package lint_test

import (
	"testing"

	"fcae/internal/lint"
)

// The golden corpora under testdata/{chanflow,hotalloc} cover the broad
// shapes; these unit tests pin the edge decisions each analyzer makes —
// directive semantics, cross-package composition, and the deliberate
// non-findings that keep the real tree clean without suppressions.

func TestChanFlowOwnerDirectiveGrantsClose(t *testing.T) {
	t.Parallel()
	src := `package p

type S struct{ ch chan int }

func newS() *S { return &S{ch: make(chan int)} }

// Stop is the designed hand-off.
//
//fcae:chan-owner p.S.ch
func (s *S) Stop() { close(s.ch) }

func (s *S) use() { s.ch <- 1; <-s.ch }
`
	wantClean(t, checkFixture(t, lint.ChanFlow, map[string]string{"p.go": src}))
}

func TestChanFlowCloseByNonOwnerAcrossPackages(t *testing.T) {
	t.Parallel()
	files := map[string]string{
		"q/q.go": `package q

type Q struct{ Ch chan int }

func New() *Q { return &Q{Ch: make(chan int)} }

func (q *Q) Use() { q.Ch <- 1; <-q.Ch }
`,
		"p.go": `package p

import "fixture/q"

func shutdown(v *q.Q) { close(v.Ch) }
`,
	}
	diags := checkFixture(t, lint.ChanFlow, files)
	wantFindings(t, diags, "p.shutdown closes q.Q.Ch but q.New makes it")
}

func TestChanFlowMalformedOwnerDirective(t *testing.T) {
	t.Parallel()
	src := `package p

type S struct{ ch chan int }

func newS() *S { return &S{ch: make(chan int)} }

//fcae:chan-owner
func (s *S) Stop() { close(s.ch) }

func (s *S) use() { s.ch <- 1; <-s.ch }
`
	diags := checkFixture(t, lint.ChanFlow, map[string]string{"p.go": src})
	wantFindings(t, diags,
		"malformed //fcae:chan-owner directive",
		"p.S.Stop closes p.S.ch but p.newS makes it")
}

func TestChanFlowSendWithoutStopSelect(t *testing.T) {
	t.Parallel()
	src := `package p

type W struct {
	out  chan int
	stop chan struct{}
}

func newW() *W { return &W{out: make(chan int), stop: make(chan struct{})} }

func (w *W) run() {
	for i := 0; ; i++ {
		w.out <- i
	}
}

func (w *W) drain() int { return <-w.out }

func (w *W) wait() { <-w.stop }

//fcae:chan-owner p.W.stop
func (w *W) Close() { close(w.stop) }
`
	diags := checkFixture(t, lint.ChanFlow, map[string]string{"p.go": src})
	wantFindings(t, diags, "worker-loop send on p.W.out must be a select case")
}

func TestChanFlowSendOutsideLoopOrWithoutStopFieldIsFine(t *testing.T) {
	t.Parallel()
	// No stop-style sibling field: the worker-send rule does not apply,
	// and a one-shot send outside any loop never does.
	src := `package p

type R struct{ done chan int }

func newR() *R { return &R{done: make(chan int, 1)} }

func (r *R) resolve(v int) { r.done <- v }

func (r *R) wait() int { return <-r.done }
`
	wantClean(t, checkFixture(t, lint.ChanFlow, map[string]string{"p.go": src}))
}

// The sentinel-producer pattern (the tree has no instance left; the rule
// still has to read one right): a stop-carrying struct whose producer
// loop sends items, recycled buffers and an eof sentinel — every loop
// send a select case beside the stop receive (or a default, for the
// capacity-guaranteed constructor seeding). The sentinel replaces closing
// the data channel, so the only close is the granted stop.
func TestChanFlowSentinelProducerSelectSends(t *testing.T) {
	t.Parallel()
	src := `package p

type item struct{ eof bool }

type F struct {
	blocks chan item
	free   chan int
	stop   chan struct{}
}

func newF() *F {
	f := &F{blocks: make(chan item, 2), free: make(chan int, 4), stop: make(chan struct{})}
	for i := 0; i < 4; i++ {
		select {
		case f.free <- i:
		default:
		}
	}
	go f.fill()
	return f
}

func (f *F) fill() {
	for {
		var buf int
		select {
		case buf = <-f.free:
		case <-f.stop:
			return
		}
		_ = buf
		select {
		case f.blocks <- item{}:
		case <-f.stop:
			return
		}
	}
}

func (f *F) next() item { return <-f.blocks }

//fcae:chan-owner p.F.stop
func (f *F) Close() { close(f.stop) }
`
	wantClean(t, checkFixture(t, lint.ChanFlow, map[string]string{"p.go": src}))
}

func TestChanFlowDirectionSuggestionSkipsEscapes(t *testing.T) {
	t.Parallel()
	src := `package p

type S struct {
	sendOnly chan int
	aliased  chan int
}

func produce(s *S) { s.sendOnly <- 1; use(s.aliased) }

func consume(s *S) { <-s.sendOnly }

func use(ch chan int) { ch <- 2; <-ch }
`
	// sendOnly is bidirectional in use (send in produce, receive in
	// consume): no finding. aliased escapes into use(): no finding.
	wantClean(t, checkFixture(t, lint.ChanFlow, map[string]string{"p.go": src}))
}

func TestChanFlowBlockingOpUnderLockViaSummary(t *testing.T) {
	t.Parallel()
	src := `package p

import "sync"

type H struct {
	mu sync.Mutex
	ch chan int
}

func newH() *H { return &H{ch: make(chan int)} }

func (h *H) emit() { h.ch <- 1 }

func (h *H) locked() {
	h.mu.Lock()
	h.emit()
	h.mu.Unlock()
}

func (h *H) unlocked() {
	h.emit()
	<-h.ch
}
`
	diags := checkFixture(t, lint.ChanFlow, map[string]string{"p.go": src})
	wantFindings(t, diags, "call to p.H.emit in p.H.locked while p.H.mu is held")
}

func TestChanFlowNonBlockingOpsUnderLockAreFine(t *testing.T) {
	t.Parallel()
	// close() and a select with default never park the goroutine, so
	// holding the lock across them is safe.
	src := `package p

import "sync"

type H struct {
	mu sync.Mutex
	ch chan int
}

func newH() *H { return &H{ch: make(chan int, 1)} }

func (h *H) tryPut(v int) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	select {
	case h.ch <- v:
		return true
	default:
		return false
	}
}

// finish holds the close grant: the interesting assertion is that the
// close under mu is not reported as a blocking op.
//
//fcae:chan-owner p.H.ch
func (h *H) finish() {
	h.mu.Lock()
	close(h.ch)
	h.mu.Unlock()
}

func (h *H) drain() { <-h.ch }
`
	wantClean(t, checkFixture(t, lint.ChanFlow, map[string]string{"p.go": src}))
}

func TestHotAllocPropagatesThroughCallGraph(t *testing.T) {
	t.Parallel()
	src := `package p

//fcae:cycle-accounting
func kernel(rows [][]byte) int {
	n := 0
	for _, r := range rows {
		n += helper(r)
	}
	return n
}

func helper(r []byte) int {
	buf := make([]byte, len(r))
	return copy(buf, r)
}
`
	diags := checkFixture(t, lint.HotAlloc, map[string]string{"p.go": src})
	wantFindings(t, diags, "make in loop-hot function of cycle-accounted p.helper")
}

func TestHotAllocStraightLineCalleeOnlyFlagsItsLoops(t *testing.T) {
	t.Parallel()
	// helper is called outside any loop, so it is hot (its loops matter)
	// but not loop-hot: the one-time make outside its loop is fine, the
	// per-iteration make inside is not.
	src := `package p

//fcae:cycle-accounting
func kernel(rows [][]byte) int { return helper(rows) }

func helper(rows [][]byte) int {
	scratch := make([]byte, 64)
	n := 0
	for _, r := range rows {
		tmp := make([]byte, len(r))
		n += copy(tmp, r) + len(scratch)
	}
	return n
}
`
	diags := checkFixture(t, lint.HotAlloc, map[string]string{"p.go": src})
	wantFindings(t, diags, "make in hot loop of cycle-accounted p.helper")
}

func TestHotAllocAmortizedAppendAndReturnBoxingAreFine(t *testing.T) {
	t.Parallel()
	src := `package p

import "fmt"

type k struct{ buf []byte }

//fcae:cycle-accounting
func (s *k) run(rows [][]byte) error {
	for i, r := range rows {
		if len(r) == 0 {
			return fmt.Errorf("row %d empty", i)
		}
		s.buf = append(s.buf[:0], r...)
	}
	return nil
}
`
	wantClean(t, checkFixture(t, lint.HotAlloc, map[string]string{"p.go": src}))
}

func TestHotAllocAllocOKSuppressionAndMalformedDirective(t *testing.T) {
	t.Parallel()
	src := `package p

//fcae:cycle-accounting
func run(rows [][]byte) [][]byte {
	var out [][]byte
	for _, r := range rows {
		//fcae:alloc-ok retained output: each copy is handed to the caller
		cp := append([]byte(nil), r...)
		//fcae:alloc-ok
		tmp := make([]byte, 1)
		_ = tmp
		out = append(out, cp)
	}
	return out
}
`
	diags := checkFixture(t, lint.HotAlloc, map[string]string{"p.go": src})
	wantFindings(t, diags,
		"malformed //fcae:alloc-ok directive",
		"make in hot loop of cycle-accounted p.run")
}

func TestHotAllocColdCodeIsIgnored(t *testing.T) {
	t.Parallel()
	src := `package p

func cold(rows [][]byte) [][]byte {
	var out [][]byte
	for _, r := range rows {
		out = append(out, append([]byte(nil), r...))
	}
	return out
}
`
	wantClean(t, checkFixture(t, lint.HotAlloc, map[string]string{"p.go": src}))
}
