package store

// Chaos soak: the whole robustness stack under one randomized harness.
// Each cycle reopens the same data directory, runs concurrent Put/Delete
// traffic while fault-injection rules flip on mid-flight (torn writes,
// failed fsyncs, failed renames, latency), sometimes takes an online
// backup, then kills the store and starts over. Two invariants are
// checked relentlessly:
//
//  1. Zero acknowledged-write loss. Every mutation whose call returned
//     nil must be visible after the next reopen; a mutation that errored
//     may or may not have landed (its bytes can be on disk even when the
//     fsync that would have acknowledged it failed). The harness tracks,
//     per name, the set of states the store is allowed to be in.
//  2. Backups that report success restore byte-identically: every file
//     the manifest lists comes back with the recorded size and CRC, and
//     the restored tree opens cleanly.
//
// Knobs: PXML_SOAK_CYCLES (default 25; `make soak` raises it),
// PXML_SOAK_SEED (default derived from the clock, always logged, so any
// failure is replayable).

import (
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"testing"
	"time"

	"pxml/internal/core"
	"pxml/internal/fixtures"
	"pxml/internal/vfs"
)

const (
	soakWriters        = 4
	soakNamesPerWriter = 6
	soakOpsPerWriter   = 40
	soakAbsent         = -1 // model state: name not in the catalog
)

// soakValues builds a palette of pairwise-distinguishable instances the
// model can identify observed values against.
func soakValues(t *testing.T, r *rand.Rand) []*core.ProbInstance {
	t.Helper()
	vals := []*core.ProbInstance{fixtures.Figure2()}
	for seed := int64(0); len(vals) < 5 && seed < 64; seed++ {
		cand := fixtures.RandomTree(rand.New(rand.NewSource(r.Int63())))
		distinct := true
		for _, v := range vals {
			if core.Equal(v, cand, 1e-12) {
				distinct = false
				break
			}
		}
		if distinct {
			vals = append(vals, cand)
		}
	}
	if len(vals) < 2 {
		t.Fatal("could not build a distinguishable value palette")
	}
	return vals
}

// soakModel tracks, per instance name, the set of value indices (or
// soakAbsent) the store may legitimately hold.
type soakModel map[string]map[int]bool

func (m soakModel) states(name string) map[int]bool {
	st, ok := m[name]
	if !ok {
		st = map[int]bool{soakAbsent: true}
		m[name] = st
	}
	return st
}

// acknowledge collapses a name to one definite state; hedge widens it.
func (m soakModel) acknowledge(name string, state int) {
	m[name] = map[int]bool{state: true}
}

func (m soakModel) hedge(name string, state int) {
	m.states(name)[state] = true
}

// verify checks every tracked name against the reopened store and
// collapses the model to what was observed.
func (m soakModel) verify(t *testing.T, s *Store, vals []*core.ProbInstance, cycle int) {
	t.Helper()
	for name, possible := range m {
		observed := soakAbsent
		if inst, ok := s.Get(name); ok {
			observed = -2
			for j, v := range vals {
				if core.Equal(inst, v, 1e-12) {
					observed = j
					break
				}
			}
			if observed == -2 {
				t.Fatalf("cycle %d: %s holds a value matching no written instance — corruption", cycle, name)
			}
		}
		if !possible[observed] {
			t.Fatalf("cycle %d: %s observed state %d, allowed %v — acknowledged write lost or phantom write",
				cycle, name, observed, possible)
		}
		m.acknowledge(name, observed)
	}
}

// soakFaults injects a random fault schedule for one cycle. Everything
// here is a failure the store is contractually allowed to survive.
func soakFaults(ff *vfs.FaultFS, r *rand.Rand) {
	n := 1 + r.Intn(3)
	for i := 0; i < n; i++ {
		rule := vfs.Rule{After: r.Intn(20), Times: 1 + r.Intn(4)}
		switch r.Intn(6) {
		case 0:
			rule.Op, rule.Path = vfs.OpWrite, segPrefix
			rule.ShortWrite = 1 + r.Intn(24)
		case 1:
			rule.Op, rule.Path = vfs.OpSync, segPrefix
		case 2:
			rule.Op, rule.Path = vfs.OpWrite, snapshotName
		case 3:
			rule.Op = vfs.OpSyncDir
		case 4:
			rule.Op, rule.Path = vfs.OpRename, ""
		case 5:
			rule.Op, rule.Path = vfs.OpWrite, segPrefix
			rule.Delay = time.Duration(r.Intn(3)) * time.Millisecond
		}
		ff.Inject(rule)
	}
}

// soakBackup takes an online backup mid-traffic. Failure under injected
// faults is legitimate; success is a contract: the backup must verify,
// and must restore byte-identically into a fresh directory.
func soakBackup(t *testing.T, s *Store, scratch string, cycle int) {
	t.Helper()
	bdir := filepath.Join(scratch, fmt.Sprintf("bkup-%d", cycle))
	man, err := s.Backup(bdir)
	if err != nil {
		return // faults won; the manifest-last protocol is tested below anyway
	}
	if _, err := VerifyBackup(nil, bdir); err != nil {
		t.Fatalf("cycle %d: successful backup fails verification: %v", cycle, err)
	}
	target := filepath.Join(scratch, fmt.Sprintf("restored-%d", cycle))
	if _, err := Restore(bdir, target, RestoreOptions{}); err != nil {
		t.Fatalf("cycle %d: verified backup fails to restore: %v", cycle, err)
	}
	files := man.Segments
	if man.Snapshot != nil {
		files = append([]ManifestFile{*man.Snapshot}, files...)
	}
	for _, mf := range files {
		data, err := os.ReadFile(filepath.Join(target, mf.Name))
		if err != nil {
			t.Fatalf("cycle %d: restored %s: %v", cycle, mf.Name, err)
		}
		if int64(len(data)) != mf.Size || crc32.ChecksumIEEE(data) != mf.CRC {
			t.Fatalf("cycle %d: restored %s is not byte-identical to the backup", cycle, mf.Name)
		}
	}
	os.RemoveAll(bdir)
	os.RemoveAll(target)
}

func TestChaosSoak(t *testing.T) {
	cycles := 25
	if v := os.Getenv("PXML_SOAK_CYCLES"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			t.Fatalf("bad PXML_SOAK_CYCLES %q", v)
		}
		cycles = n
	} else if testing.Short() {
		cycles = 8
	}
	seed := time.Now().UnixNano()
	if v := os.Getenv("PXML_SOAK_SEED"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			t.Fatalf("bad PXML_SOAK_SEED %q", v)
		}
		seed = n
	}
	t.Logf("chaos soak: %d cycles, seed %d (replay with PXML_SOAK_SEED=%d)", cycles, seed, seed)
	root := rand.New(rand.NewSource(seed))

	dir := filepath.Join(t.TempDir(), "data")
	arch := filepath.Join(t.TempDir(), "archive")
	scratch := t.TempDir()
	vals := soakValues(t, root)
	model := make(soakModel)

	for cycle := 0; cycle < cycles; cycle++ {
		ff := vfs.NewFaultFS(nil)
		s, rep, err := Open(dir, Options{
			FS:               ff,
			SegmentSize:      512,
			CompactThreshold: 8 << 10,
			ArchiveDir:       arch,
			ArchiveRetention: 32,
			QuarantineMax:    4,
			CommitBatch:      8,
			CommitDelay:      time.Duration(root.Intn(2)) * time.Millisecond,
			ScrubInterval:    50 * time.Millisecond,
		})
		if err != nil {
			t.Fatalf("cycle %d: reopen (report %v): %v", cycle, rep, err)
		}
		// Invariant 1: everything the previous cycle acknowledged is here.
		model.verify(t, s, vals, cycle)

		var (
			wg     sync.WaitGroup
			mu     sync.Mutex // guards model merges
			locals = make([]soakModel, soakWriters)
		)
		for w := 0; w < soakWriters; w++ {
			wg.Add(1)
			go func(w int, wr *rand.Rand) {
				defer wg.Done()
				local := make(soakModel)
				// Seed the local view from the global model: this writer
				// owns its names exclusively.
				for i := 0; i < soakNamesPerWriter; i++ {
					name := fmt.Sprintf("w%d-%d", w, i)
					mu.Lock()
					st := model.states(name)
					cp := make(map[int]bool, len(st))
					for k, v := range st {
						cp[k] = v
					}
					mu.Unlock()
					local[name] = cp
				}
				for op := 0; op < soakOpsPerWriter; op++ {
					name := fmt.Sprintf("w%d-%d", w, wr.Intn(soakNamesPerWriter))
					// An op rejected because the store was already degraded
					// wrote nothing (degradation is sticky and checked before
					// the append). But the op that CAUSES degradation also
					// returns ErrDegraded, and its bytes may be durable — a
					// failed fsync does not un-write the file — so only a
					// pre-checked degraded state skips the hedge.
					degradedBefore := s.Health().Degraded
					if wr.Intn(5) == 0 {
						switch _, err := s.Delete(name); {
						case err == nil:
							local.acknowledge(name, soakAbsent)
						case errors.Is(err, ErrDegraded) && degradedBefore:
							// Rejected outright; state unchanged.
						default:
							local.hedge(name, soakAbsent)
						}
						continue
					}
					j := wr.Intn(len(vals))
					switch err := s.Put(name, vals[j]); {
					case err == nil:
						local.acknowledge(name, j)
					case errors.Is(err, ErrDegraded) && degradedBefore:
					default:
						local.hedge(name, j)
					}
				}
				locals[w] = local
			}(w, rand.New(rand.NewSource(root.Int63())))
		}

		// Let traffic establish, then flip the world into failure.
		time.Sleep(time.Duration(1+root.Intn(3)) * time.Millisecond)
		if cycle%3 != 0 { // every third cycle stays fault-free
			soakFaults(ff, root)
		}
		if cycle%4 == 1 {
			soakBackup(t, s, scratch, cycle)
		}
		wg.Wait()
		for _, local := range locals {
			for name, st := range local {
				model[name] = st
			}
		}
		if root.Intn(3) == 0 {
			s.Compact() // may fail under faults; the store must survive it
		}
		if root.Intn(2) == 0 {
			ff.Reset() // half the cycles close cleanly, half close into faults
		}
		s.Close()
	}

	// Final reopen with a pristine filesystem: the surviving state must
	// still satisfy the model, and the store must be clean and healthy.
	s, rep, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("final reopen (report %v): %v", rep, err)
	}
	defer s.Close()
	model.verify(t, s, vals, cycles)
	if h := s.Health(); h.Degraded {
		t.Fatalf("store degraded after faults were lifted: %+v", h)
	}
}
