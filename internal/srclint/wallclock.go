package srclint

import (
	"go/ast"
	"go/types"
	"path/filepath"
	"strings"
)

// Hot packages: everything under these import-path suffixes runs inside the
// simulated-cycle loop, where time is cycle counts and a wall-clock read
// destroys determinism and benchmark integrity.
var hotPackages = []string{
	"/internal/logic",
	"/internal/netlist",
	"/internal/rtl",
	"/internal/edac",
	"/internal/bfm",
}

// Ladder scopes: the supervised engine's recovery ladder and the chaos
// harness that drives it. The ladder runs to its end inside the engine
// call that triggered it, so neither has anything to wait for, and a
// wall-clock read or timer there would make recovery timing-dependent
// again. An entry ending in ".go" names one file (import path + "/" +
// file name); the others name packages. Both match by suffix.
var ladderScopes = []string{
	"/internal/chaos",
	"rijndaelip/supervisor.go",
}

// Banned time-package functions: anything that reads the wall clock or
// blocks on it.
var bannedTimeFuncs = map[string]bool{
	"Now": true, "Sleep": true, "Since": true, "Until": true,
	"After": true, "AfterFunc": true, "Tick": true,
	"NewTicker": true, "NewTimer": true,
}

// checkWallClock flags banned time-package calls anywhere in a hot package
// or a ladder scope, and — in every package — inside functions whose names
// mark them as cycle evaluation paths (Eval*/eval*/Step/Gather*/gather*).
func checkWallClock(p *Package) []Finding {
	var out []Finding
	for _, f := range p.Files {
		file := p.Path + "/" + filepath.Base(p.Fset.Position(f.Pos()).Filename)
		var scope string
		switch {
		case matchesAny(p.Path, hotPackages):
			scope = "on the simulated-cycle hot path (" + p.Path + "); simulated time is cycle counts"
		case matchesAny(p.Path, ladderScopes) || matchesAny(file, ladderScopes):
			scope = "in the recovery ladder (" + file + "); the ladder settles inside the engine call, with nothing to wait for"
		}
		ast.Inspect(f, func(n ast.Node) bool {
			fd, ok := n.(*ast.FuncDecl)
			if !ok {
				return true
			}
			where := scope
			if where == "" && isHotFunc(fd.Name.Name) {
				where = "on the simulated-cycle hot path (function " + fd.Name.Name + "); simulated time is cycle counts"
			}
			if where == "" || fd.Body == nil {
				return false
			}
			ast.Inspect(fd.Body, func(m ast.Node) bool {
				sel, ok := m.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				x, ok := sel.X.(*ast.Ident)
				if !ok {
					return true
				}
				pn, ok := p.Info.Uses[x].(*types.PkgName)
				if !ok || pn.Imported().Path() != "time" || !bannedTimeFuncs[sel.Sel.Name] {
					return true
				}
				out = append(out, Finding{
					Rule:   "sim-wallclock",
					Pos:    p.Fset.Position(sel.Pos()),
					Object: "time." + sel.Sel.Name,
					Detail: "wall-clock call " + where,
				})
				return true
			})
			return false
		})
	}
	return out
}

// matchesAny reports whether path ends in one of the suffixes.
func matchesAny(path string, suffixes []string) bool {
	for _, suf := range suffixes {
		if strings.HasSuffix(path, suf) {
			return true
		}
	}
	return false
}

// isHotFunc reports whether a function name marks a cycle evaluation path.
func isHotFunc(name string) bool {
	switch {
	case name == "Step":
		return true
	case strings.HasPrefix(name, "Eval"), strings.HasPrefix(name, "eval"):
		return true
	case strings.HasPrefix(name, "Gather"), strings.HasPrefix(name, "gather"):
		return true
	}
	return false
}
