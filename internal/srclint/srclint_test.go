package srclint

import (
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// moduleRoot walks up from the test's working directory to the go.mod.
func moduleRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("no go.mod above the test directory")
		}
		dir = parent
	}
}

// analyze type-checks synthetic sources and runs all analyzers over them.
func analyze(t *testing.T, sources map[string]string) []Finding {
	t.Helper()
	p, err := LoadSource("probe", sources)
	if err != nil {
		t.Fatal(err)
	}
	return Analyze([]*Package{p})
}

// expect asserts exactly one finding for a rule, anchored at file:line, and
// returns it.
func expect(t *testing.T, fs []Finding, rule, file string, line int) Finding {
	t.Helper()
	var got []Finding
	for _, f := range fs {
		if f.Rule == rule {
			got = append(got, f)
		}
	}
	if len(got) != 1 {
		t.Fatalf("want exactly one %s finding, got %d in %v", rule, len(got), fs)
	}
	f := got[0]
	if f.Pos.Filename != file || f.Pos.Line != line {
		t.Fatalf("%s localized at %s:%d, want %s:%d", rule, f.Pos.Filename, f.Pos.Line, file, line)
	}
	return f
}

func countRule(fs []Finding, rule string) int {
	n := 0
	for _, f := range fs {
		if f.Rule == rule {
			n++
		}
	}
	return n
}

func TestAtomicPlainAccess(t *testing.T) {
	fs := analyze(t, map[string]string{"a.go": `package probe

import "sync/atomic"

type S struct{ n int64 }

func (s *S) Inc() { atomic.AddInt64(&s.n, 1) }
func (s *S) Ok() int64 { return atomic.LoadInt64(&s.n) }
func (s *S) Bad() int64 { return s.n }
func (s *S) AlsoBad() { s.n = 0 }
`})
	if n := countRule(fs, "atomic-plain-access"); n != 2 {
		t.Fatalf("want 2 atomic findings (read and write), got %d: %v", n, fs)
	}
	f := expect(t, fs[:1], "atomic-plain-access", "a.go", 9)
	if f.Object != "n" || !strings.Contains(f.Detail, "atomic.AddInt64 at a.go:7") {
		t.Fatalf("finding does not name the field and first atomic site: %+v", f)
	}
}

func TestAtomicAccessCleanTypedAtomics(t *testing.T) {
	// Typed atomics (atomic.Uint64) never take the address-of path and a
	// field never touched by atomic functions is unrestricted.
	fs := analyze(t, map[string]string{"a.go": `package probe

import "sync/atomic"

type S struct {
	c atomic.Uint64
	plain int
}

func (s *S) Work() uint64 {
	s.plain++
	return s.c.Load()
}
`})
	if n := countRule(fs, "atomic-plain-access"); n != 0 {
		t.Fatalf("false positives: %v", fs)
	}
}

func TestErrorWrap(t *testing.T) {
	fs := analyze(t, map[string]string{"a.go": `package probe

import "fmt"

func Bad(err error) error { return fmt.Errorf("op failed: %v", err) }
func Good(err error) error { return fmt.Errorf("op failed: %w", err) }
func NotError(n int) error { return fmt.Errorf("count %v", n) }
func Mixed(n int, err error) error { return fmt.Errorf("step %d: %s", n, err) }
`})
	if n := countRule(fs, "error-wrap"); n != 2 {
		t.Fatalf("want 2 error-wrap findings, got %d: %v", n, fs)
	}
	f := expect(t, fs[:1], "error-wrap", "a.go", 5)
	if !strings.Contains(f.Detail, "%v") || !strings.Contains(f.Detail, "%w") {
		t.Fatalf("finding does not explain the verb swap: %+v", f)
	}
}

func TestErrorWrapVerbAlignment(t *testing.T) {
	// Star widths and explicit indexes shift argument positions; only the
	// error under a text verb is flagged.
	fs := analyze(t, map[string]string{"a.go": `package probe

import "fmt"

func F(w int, err error) error { return fmt.Errorf("%*d then %s", w, 3, err) }
func G(err error) error { return fmt.Errorf("%[1]w again %[1]v", err) }
`})
	// F: err under %s -> finding. G: %[1]v on an already-wrapped arg ->
	// finding (the %v rendering is still a plain flatten).
	if n := countRule(fs, "error-wrap"); n != 2 {
		t.Fatalf("want 2 error-wrap findings, got %d: %v", n, fs)
	}
}

func TestSimWallClock(t *testing.T) {
	fs := analyze(t, map[string]string{"a.go": `package probe

import "time"

func Eval() int64 { return time.Now().UnixNano() }
func gatherROM() { time.Sleep(time.Millisecond) }
func Report() time.Time { return time.Now() }
`})
	if n := countRule(fs, "sim-wallclock"); n != 2 {
		t.Fatalf("want 2 wallclock findings (Eval, gatherROM; Report is cold), got %d: %v", n, fs)
	}
	f := expect(t, fs[:1], "sim-wallclock", "a.go", 5)
	if f.Object != "time.Now" || !strings.Contains(f.Detail, "function Eval") {
		t.Fatalf("finding does not localize the call and function: %+v", f)
	}
}

func TestLockCopy(t *testing.T) {
	fs := analyze(t, map[string]string{"a.go": `package probe

import "sync"

type Guarded struct {
	mu sync.Mutex
	n  int
}

func ByValue(g Guarded) {}
func ByPointer(g *Guarded) {}
func Snapshot(g *Guarded) {
	cp := *g
	_ = cp
}
func Fresh() Guarded { var g Guarded; return g }
`})
	// ByValue's parameter, Snapshot's dereference copy, and Fresh's result
	// type.
	if n := countRule(fs, "lock-copy"); n < 3 {
		t.Fatalf("want at least 3 lock-copy findings, got %d: %v", n, fs)
	}
	found := false
	for _, f := range fs {
		if f.Rule == "lock-copy" && f.Pos.Line == 13 {
			found = true
			if !strings.Contains(f.Detail, "assignment copies") {
				t.Fatalf("dereference copy misreported: %+v", f)
			}
		}
	}
	if !found {
		t.Fatal("dereference copy at line 13 not flagged")
	}
}

func TestLockCopyCleanPointers(t *testing.T) {
	fs := analyze(t, map[string]string{"a.go": `package probe

import "sync"

type Guarded struct {
	mu sync.Mutex
	n  int
}

func Use(g *Guarded) *Guarded {
	p := g
	return p
}
`})
	if n := countRule(fs, "lock-copy"); n != 0 {
		t.Fatalf("false positives on pointer flow: %v", fs)
	}
}

// writeModule lays out a synthetic module under a temporary root: files
// maps a slash path relative to the root to its contents.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
	for name, src := range files {
		path := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

// stateWriteModule is a module with its own internal/lanesim: the owner
// writes its state freely, and a simulator package outside it writes and
// reads the state arrays and another type's Q.
var stateWriteModule = map[string]string{
	"go.mod": "module probe\n\ngo 1.24\n",
	"internal/lanesim/lanesim.go": `package lanesim

type Words struct {
	Q    []uint64
	ROMQ [][8]uint64
}

func (w *Words) Latch(v uint64) {
	w.Q[0] = v
	copy(w.ROMQ, [][8]uint64{{}})
}

func (w *Words) WriteState(write func(q []uint64, romq [][8]uint64)) { write(w.Q, w.ROMQ) }
`,
	"sim/sim.go": `package sim

import "probe/internal/lanesim"

type reg struct{ Q []uint64 }

type embeds struct{ *lanesim.Words }

type S struct {
	w *lanesim.Words
	e embeds
	r reg
}

func (s *S) Bad() {
	s.w.Q[0] ^= 1
	s.w.ROMQ[0][3] = 2
	copy(s.w.Q[1:], []uint64{1})
	s.w.Q = nil
	s.w.Q[1]++
	clear(s.e.ROMQ)
	for s.w.Q[2] = range 3 {
	}
}

func (s *S) Fine() uint64 {
	s.r.Q[0] = 1
	s.w.WriteState(func(q []uint64, romq [][8]uint64) {
		q[0] ^= 1
		copy(romq, [][8]uint64{{}})
	})
	n := s.w.Q[0]
	for i := range s.w.Q {
		n += s.w.Q[i]
	}
	return n
}
`,
}

// TestLanesimStateWrite: every write into lanesim.Words.Q or ROMQ outside
// internal/lanesim is flagged at its line; the owner's own writes, reads,
// writes through WriteState's arguments and another type's Q field are
// not.
func TestLanesimStateWrite(t *testing.T) {
	root := writeModule(t, stateWriteModule)
	fs, err := Run(root)
	if err != nil {
		t.Fatal(err)
	}
	var lines []int
	for _, f := range fs {
		if f.Rule != "lanesim-state-write" {
			t.Errorf("unexpected finding: %v", f)
			continue
		}
		if filepath.Base(f.Pos.Filename) != "sim.go" {
			t.Errorf("finding outside the simulator package: %v", f)
		}
		lines = append(lines, f.Pos.Line)
	}
	want := []int{16, 17, 18, 19, 20, 21, 22}
	if !slices.Equal(lines, want) {
		t.Fatalf("findings on lines %v, want %v: %v", lines, want, fs)
	}
	if !strings.Contains(fs[5].Object, "ROMQ") || !strings.Contains(fs[5].Detail, "clear") {
		t.Fatalf("clear through an embedding misreported: %v", fs[5])
	}
}

// TestRepositoryClean is the satellite acceptance check: the analyzers run
// over the real module and report nothing. Every finding they ever reported
// on this tree has been fixed; new code must keep it that way.
func TestRepositoryClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module from source")
	}
	fs, err := Run(moduleRoot(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(fs) != 0 {
		for _, f := range fs {
			t.Error(f)
		}
	}
}

func TestRulesDocumented(t *testing.T) {
	rules := Rules()
	if len(rules) != 5 {
		t.Fatalf("rule count %d", len(rules))
	}
	for _, r := range rules {
		if r.Name == "" || r.Desc == "" {
			t.Fatalf("undocumented rule: %+v", r)
		}
	}
}
