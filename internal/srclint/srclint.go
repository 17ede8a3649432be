// Package srclint is a dependency-free static analyzer for the repository's
// own Go-source invariants, built on the standard library's go/ast and
// go/types only (no golang.org/x/tools). It enforces the contracts that
// reviews used to carry from memory:
//
//   - atomic-plain-access: a variable or struct field whose address is ever
//     passed to a sync/atomic function must never be read or written
//     plainly anywhere in the module — a single plain access is a data
//     race that the race detector only catches when the interleaving
//     cooperates;
//   - error-wrap: fmt.Errorf must format error-typed arguments with %w,
//     never %v or %s, so errors.Is(err, bfm.ErrTimeout) keeps working
//     across the shard and supervision paths (the PR 4 contract);
//   - sim-wallclock: the simulated-cycle hot path (internal/logic,
//     internal/netlist, internal/rtl, internal/edac, internal/bfm, plus
//     any function named Eval*/Step/Gather*) must not read the wall clock
//     or sleep — simulated time is cycle counts, and a time.Now in an Eval
//     destroys reproducibility and benchmark integrity;
//   - lock-copy: values of types containing sync.Mutex, sync.RWMutex or
//     the other non-copyable sync/atomic state must not be copied by
//     value (parameters, receivers, results or plain assignment);
//   - lanesim-state-write: the lane machine's state words and ROM output
//     registers (lanesim.Words.Q, ROMQ) are written only inside
//     internal/lanesim, where every write sets Dirty; everyone else goes
//     through Machine.WriteState.
//
// All findings carry exact file:line positions. The module is loaded and
// type-checked from source via go/importer's source compiler, so the
// analyzers see real types — no string matching on identifier names.
package srclint

import (
	"fmt"
	"go/token"
	"sort"
)

// Finding is one source-invariant violation.
type Finding struct {
	Rule   string
	Pos    token.Position
	Object string // the identifier, call or type the finding is about
	Detail string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: %s: %s: %s", f.Pos, f.Rule, f.Object, f.Detail)
}

// Rule describes one analyzer, for documentation and rule-count telemetry.
type Rule struct {
	Name string
	Desc string
}

// Rules returns every source-level analyzer.
func Rules() []Rule {
	return []Rule{
		{"atomic-plain-access", "fields accessed via sync/atomic functions must never be read or written plainly"},
		{"error-wrap", "fmt.Errorf must format error-typed arguments with %w, not %v/%s"},
		{"sim-wallclock", "no time.Now/Sleep/Since/After/Tick* on the simulated-cycle hot path"},
		{"lock-copy", "values containing sync.Mutex/RWMutex/WaitGroup/Once/Cond must not be copied"},
		{"lanesim-state-write", "lanesim.Words.Q/ROMQ are written only in internal/lanesim or through Machine.WriteState"},
	}
}

// Run loads and type-checks every non-test package under root (a module
// root directory) and runs all analyzers. The process working directory
// must be inside the module so stdlib/source import resolution works.
func Run(root string) ([]Finding, error) {
	pkgs, err := Load(root)
	if err != nil {
		return nil, err
	}
	return Analyze(pkgs), nil
}

// Analyze runs every analyzer over an already-loaded package set and
// returns the findings sorted by position.
func Analyze(pkgs []*Package) []Finding {
	var out []Finding
	out = append(out, checkAtomicAccess(pkgs)...)
	for _, p := range pkgs {
		out = append(out, checkErrorWrap(p)...)
		out = append(out, checkWallClock(p)...)
		out = append(out, checkLockCopy(p)...)
		out = append(out, checkStateWrites(p)...)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Pos, out[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return out[i].Rule < out[j].Rule
	})
	return out
}
