package fcae_test

import (
	"os"
	"os/exec"
	"testing"
)

// TestBenchmarkModuleVets compiles benchmark/ against the working tree.
// benchmark/ is a module of its own (replace fcae => ../), so the root
// `go build`, `go vet` and `go test ./...` never enter it, and an exported
// name deleted here would break the ledger unseen. It needs no network and
// writes nothing inside the checkout.
func TestBenchmarkModuleVets(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the go tool on a second module")
	}
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go binary on PATH")
	}
	cmd := exec.Command(goBin, "vet", "./...")
	cmd.Dir = "benchmark"
	cmd.Env = append(os.Environ(), "GOTOOLCHAIN=local", "GOPROXY=off")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go vet ./... in benchmark/: %v\n%s", err, out)
	}
}
