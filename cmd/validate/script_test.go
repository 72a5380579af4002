package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestValidatecheckScriptFailsOnBreach runs scripts/validatecheck.sh the way
// CI does, from the module root, but from a copy that sits beside a floor
// file the analyzer cannot meet (F1 > 1). The gate must exit non-zero: the
// scorecard reports the breach, and the script must carry cmd/validate's
// status out rather than the status of whatever prints the scorecard.
func TestValidatecheckScriptFailsOnBreach(t *testing.T) {
	for _, tool := range []string{"sh", "go"} {
		if _, err := exec.LookPath(tool); err != nil {
			t.Skipf("%s not on PATH", tool)
		}
	}
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	script, err := os.ReadFile(filepath.Join(root, "scripts", "validatecheck.sh"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "validatecheck.sh"), script, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "validatefloor.txt"), []byte("series.app-idle.f1 1.01\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command("sh", filepath.Join(dir, "validatecheck.sh"), filepath.Join(dir, "out"), "quick")
	cmd.Dir = root
	out, err := cmd.CombinedOutput()
	var exitErr *exec.ExitError
	if !errors.As(err, &exitErr) {
		t.Fatalf("validatecheck.sh with an unmeetable floor: err = %v, want a non-zero exit\n%s", err, out)
	}
	if !strings.Contains(string(out), "FLOOR BREACHES") {
		t.Errorf("scorecard does not report the breach:\n%s", out)
	}
}
