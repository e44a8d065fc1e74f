package analysis

import (
	"os"
	"path"
	"path/filepath"
	"strings"
	"testing"
)

// TestNoGoroutineAllowsInSimulator pins that no package inside the
// simulation boundary (simScopes) carries a goroutinefree allowance. The
// engine drives every processor body — state machine or iter.Pull
// coroutine — from one loop on the caller's goroutine, so the simulator
// needs no go statement and no channel anywhere; an allow directive
// appearing there means host concurrency crept back into a run.
func TestNoGoroutineAllowsInSimulator(t *testing.T) {
	root, modPath, err := FindModule(".")
	if err != nil {
		t.Fatal(err)
	}
	err = filepath.Walk(root, func(file string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if info.IsDir() {
			// Fixtures under testdata demonstrate the escape hatch on
			// purpose; they are not part of the simulator.
			if info.Name() == "testdata" || info.Name() == ".git" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(file, ".go") {
			return nil
		}
		rel, err := filepath.Rel(root, file)
		if err != nil {
			return err
		}
		if !inScope(path.Join(modPath, filepath.ToSlash(filepath.Dir(rel))), simScopes()) {
			return nil
		}
		data, err := os.ReadFile(file)
		if err != nil {
			return err
		}
		for i, line := range strings.Split(string(data), "\n") {
			if strings.Contains(line, "//lint:allow goroutinefree") {
				t.Errorf("%s:%d: goroutinefree allow inside the simulator; runs must stay single-goroutine", rel, i+1)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
