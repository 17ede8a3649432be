package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestFindModuleRootOutsideModule runs the lookup from a directory with
// no go.mod above it: it must fall back to the module verifyall was built
// from rather than fail the source-analysis step.
func TestFindModuleRootOutsideModule(t *testing.T) {
	t.Chdir(t.TempDir())
	root, err := findModuleRoot()
	if err != nil {
		t.Fatal(err)
	}
	mod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(mod), "module rijndaelip\n") {
		t.Errorf("%s/go.mod is not this module's:\n%s", root, mod)
	}
}
