package pxml_test

import (
	"bytes"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"pxml"
)

func newDeterministicRand() *rand.Rand { return rand.New(rand.NewSource(42)) }

// TestIntegrationBinaries exercises every command-line tool and example
// end to end through the go toolchain: generate an instance, inspect it,
// query it, run a tiny benchmark sweep, drive the shell, and run each
// example program. Skipped under -short.
func TestIntegrationBinaries(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test runs binaries; skipped with -short")
	}
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go toolchain not available")
	}
	dir := t.TempDir()
	inst := filepath.Join(dir, "inst.pxml")
	instJSON := filepath.Join(dir, "inst.json")

	run := func(wantFail bool, args ...string) string {
		t.Helper()
		cmd := exec.Command(goBin, append([]string{"run"}, args...)...)
		cmd.Dir = "."
		var out bytes.Buffer
		cmd.Stdout = &out
		cmd.Stderr = &out
		err := cmd.Run()
		if (err != nil) != wantFail {
			t.Fatalf("go run %v: err=%v\n%s", args, err, out.String())
		}
		return out.String()
	}

	// Generate (text and JSON).
	run(false, "./cmd/pxmlgen", "-depth", "3", "-branch", "2", "-labeling", "FR", "-seed", "5", "-o", inst)
	run(false, "./cmd/pxmlgen", "-depth", "2", "-branch", "2", "-format", "json", "-o", instJSON)

	// Inspect.
	info := run(false, "./cmd/pxmlinfo", inst)
	for _, want := range []string{"objects:     15", "tree:        true", "valid:       yes"} {
		if !strings.Contains(info, want) {
			t.Errorf("pxmlinfo missing %q:\n%s", want, info)
		}
	}
	run(false, "./cmd/pxmlinfo", "-format", "json", instJSON)

	// Query: worlds and marginals always work on a generated tree.
	worlds := run(false, "./cmd/pxmlquery", "-op", "worlds", "-top", "2", inst)
	if !strings.Contains(worlds, "p=") {
		t.Errorf("pxmlquery worlds output:\n%s", worlds)
	}
	marg := run(false, "./cmd/pxmlquery", "-op", "marginals", inst)
	if !strings.Contains(marg, "n0\t1.000000000") {
		t.Errorf("pxmlquery marginals output:\n%s", marg)
	}
	// An unknown op fails.
	run(true, "./cmd/pxmlquery", "-op", "nope", inst)
	// -timeout bounds every operation the engine runs, counts and
	// projections included: an expired deadline on a 1 365-object tree is
	// an error, not an answer.
	big := filepath.Join(dir, "big.pxml")
	run(false, "./cmd/pxmlgen", "-depth", "5", "-branch", "4", "-labeling", "FR", "-seed", "5", "-o", big)
	if out := run(true, "./cmd/pxmlquery", "-op", "count", "-path", "n0.L0x0.L1x0", "-timeout", "1ns", big); !strings.Contains(out, "deadline exceeded") {
		t.Errorf("pxmlquery count past its -timeout:\n%s", out)
	}
	if out := run(true, "./cmd/pxmlquery", "-op", "project", "-path", "n0.L0x0.L1x0", "-timeout", "1ns", big); !strings.Contains(out, "deadline exceeded") {
		t.Errorf("pxmlquery project past its -timeout:\n%s", out)
	}

	// Bench: a tiny sweep.
	bench := run(false, "./cmd/pxmlbench", "-panel", "c", "-depths", "2,3", "-branches", "2",
		"-labelings", "SL", "-instances", "1", "-queries", "1")
	if !strings.Contains(bench, "selection") || !strings.Contains(bench, "linear fits") {
		t.Errorf("pxmlbench output:\n%s", bench)
	}

	// Shell: scripted session ending in SAVE.
	saved := filepath.Join(dir, "projected.pxml")
	script := "STATS\nWORLDS 1\nSAVE " + saved + "\nQUIT\n"
	cmd := exec.Command(goBin, "run", "./cmd/pxmlshell", inst)
	cmd.Stdin = strings.NewReader(script)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &out
	if err := cmd.Run(); err != nil {
		t.Fatalf("pxmlshell: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "objects=15") {
		t.Errorf("shell output:\n%s", out.String())
	}
	if _, err := os.Stat(saved); err != nil {
		t.Errorf("shell SAVE produced no file: %v", err)
	}

	// Examples: each must run to completion.
	for _, ex := range []string{
		"./examples/quickstart",
		"./examples/bibliography",
		"./examples/surveillance",
		"./examples/sensornet",
		"./examples/citations",
	} {
		out := run(false, ex)
		if len(out) == 0 {
			t.Errorf("example %s produced no output", ex)
		}
	}
}

// TestLargeProjectionSmoke runs a full ancestor projection on an instance
// at the paper's upper scale (87 381 objects, 16-entry OPFs) to catch
// stack, allocation or complexity regressions. Skipped under -short.
func TestLargeProjectionSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("large smoke test; skipped with -short")
	}
	w, err := pxml.GenerateWorkload(pxml.GenConfig{
		Depth: 8, Branch: 4, Labeling: pxml.SL, Seed: 77, LeafDomainSize: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if w.PI.NumObjects() != 87381 {
		t.Fatalf("objects = %d", w.PI.NumObjects())
	}
	r := newDeterministicRand()
	p, ok := w.RandomQuery(r)
	if !ok {
		t.Fatal("no query")
	}
	out, err := pxml.AncestorProject(w.PI, p)
	if err != nil {
		t.Fatal(err)
	}
	if err := out.ValidateLite(); err != nil {
		t.Fatalf("large projection result invalid: %v", err)
	}
	// The result's induced semantics can't be enumerated at this scale;
	// check the cheap invariants instead: root OPF mass 1, every other
	// OPF normalized with zero mass on ∅.
	for _, o := range out.SortedOPFObjects() {
		opf := out.OPF(o)
		if m := opf.Mass(); m < 1-1e-6 || m > 1+1e-6 {
			t.Fatalf("OPF(%s) mass = %v", o, m)
		}
		if o != out.Root() && opf.Prob(nil) != 0 {
			t.Fatalf("non-root %s kept ∅ mass %v", o, opf.Prob(nil))
		}
	}
}

// TestIntegrationDaemon boots pxmld on a random port with a persistent
// data directory, drives its HTTP API, restarts it, and checks the catalog
// survived. Skipped under -short.
func TestIntegrationDaemon(t *testing.T) {
	if testing.Short() {
		t.Skip("daemon integration; skipped with -short")
	}
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go toolchain not available")
	}
	// Build once to a temp binary so restarts are fast.
	dir := t.TempDir()
	bin := filepath.Join(dir, "pxmld")
	if out, err := exec.Command(goBin, "build", "-o", bin, "./cmd/pxmld").CombinedOutput(); err != nil {
		t.Fatalf("building pxmld: %v\n%s", err, out)
	}
	dataDir := filepath.Join(dir, "data")
	addr := "127.0.0.1:39471"

	start := func() *exec.Cmd {
		cmd := exec.Command(bin, "-addr", addr, "-datadir", dataDir)
		cmd.Stdout = os.Stderr
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		// Wait for the listener.
		for i := 0; i < 100; i++ {
			resp, err := http.Get("http://" + addr + "/v1/instances")
			if err == nil {
				resp.Body.Close()
				return cmd
			}
			time.Sleep(50 * time.Millisecond)
		}
		_ = cmd.Process.Kill()
		t.Fatal("pxmld did not start")
		return nil
	}
	stop := func(cmd *exec.Cmd) {
		_ = cmd.Process.Kill()
		_, _ = cmd.Process.Wait()
	}

	cmd := start()
	// Upload an instance.
	var buf bytes.Buffer
	w, err := pxml.GenerateWorkload(pxml.GenConfig{Depth: 2, Branch: 2, Labeling: pxml.SL, Seed: 9, LeafDomainSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := pxml.EncodeText(&buf, w.PI); err != nil {
		t.Fatal(err)
	}
	req, _ := http.NewRequest("PUT", "http://"+addr+"/v1/instances/gen", bytes.NewReader(buf.Bytes()))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("PUT status %d", resp.StatusCode)
	}
	// Query it.
	qresp, err := http.Post("http://"+addr+"/v1/instances/gen/query", "text/plain", strings.NewReader("STATS"))
	if err != nil {
		t.Fatal(err)
	}
	qbody, _ := io.ReadAll(qresp.Body)
	qresp.Body.Close()
	if qresp.StatusCode != http.StatusOK || !strings.Contains(string(qbody), "objects=7") {
		t.Fatalf("query: %d %s", qresp.StatusCode, qbody)
	}
	stop(cmd)

	// Restart: the instance must still be there.
	cmd = start()
	defer stop(cmd)
	lresp2, err := http.Get("http://" + addr + "/v1/instances")
	if err != nil {
		t.Fatal(err)
	}
	lbody, _ := io.ReadAll(lresp2.Body)
	lresp2.Body.Close()
	if !strings.Contains(string(lbody), `"name":"gen"`) {
		t.Fatalf("catalog lost after restart: %s", lbody)
	}
}
