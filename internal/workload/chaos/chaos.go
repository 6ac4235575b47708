// Package chaos is the torture harness behind the fault-injection layer
// (internal/fault): it runs a mixed durable workload against a real data
// directory while a seeded fault schedule fires — WAL fsync failures,
// ENOSPC mid-checkpoint, torn WAL tails, or a simulated SIGKILL — then
// reopens the directory and verifies the engine's two recovery promises:
//
//   - No lost acks: every commit the engine acked durable is present
//     after recovery, byte for byte.
//   - No torn state: every recovered row carries a payload whose checksum
//     and content match what was written, and every object a retained
//     checkpoint version names matches its recorded size and CRC.
//
// Rows that were committed in memory but never acked durable MAY survive
// (the OS can keep unsynced bytes); the harness counts them as Extra —
// allowed, since durability is a lower bound, and dependency-closed
// flushing guarantees they never contradict the acked prefix.
//
// Everything is derived from one seed — fault offsets, payloads, crash
// points — so a failing run replays exactly with the same seed.
package chaos

import (
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"mainline"
	"mainline/internal/checkpoint/manifestlog"
	"mainline/internal/fault"
	"mainline/internal/objstore"
)

// Scenario names one fault schedule.
type Scenario string

// The four torture scenarios.
const (
	// FsyncFail fails a WAL fsync mid-run: the engine must fail the whole
	// commit group and seal itself degraded.
	FsyncFail Scenario = "fsync-fail"
	// ENOSPC injects out-of-space errors into checkpoint writes while the
	// workload keeps committing: attempts abort, the engine stays healthy.
	ENOSPC Scenario = "enospc"
	// TornWrite tears a WAL write partway through, leaving a physically
	// torn tail for recovery to repair.
	TornWrite Scenario = "torn-write"
	// SIGKILL crashes the engine mid-workload with no fault prelude
	// (Admin().SimulateCrash in-process; the CLI variant is killed for
	// real by CI).
	SIGKILL Scenario = "sigkill"
	// ObjStore attaches a cold tier whose object store fails and stalls on
	// a seeded schedule (Get EIO, Put ENOSPC, ReadRange stalls) while an
	// evictor and a cold reader race the committers and the checkpointer.
	// The checkpoints live in that store too, so recovery reads them back
	// from it.
	ObjStore Scenario = "objstore"
)

// Scenarios lists every scenario, in CI order.
func Scenarios() []Scenario {
	return []Scenario{FsyncFail, ENOSPC, TornWrite, SIGKILL, ObjStore}
}

// coldDir is the object store's location inside a chaos data directory.
func coldDir(dir string) string { return filepath.Join(dir, "cold") }

// Config parameterizes one torture run.
type Config struct {
	// Dir is the engine data directory (created if missing).
	Dir string
	// Scenario selects the fault schedule.
	Scenario Scenario
	// Seed derives everything: fault offsets, payloads, crash points.
	Seed int64
	// Workers is the number of concurrent durable committers (default 4).
	Workers int
	// Ops is the per-worker durable commit budget (default 150).
	Ops int
	// CheckpointEvery is the background checkpoint period while the
	// workload runs (default 2ms; <0 disables).
	CheckpointEvery time.Duration
	// AckedPath, when set, appends an fsynced "worker seq" line per acked
	// commit, so a separate process (the CLI's verify mode, after a real
	// SIGKILL) can check the no-lost-acks invariant.
	AckedPath string
	// ExternalKill (the CLI's run mode) skips the simulated crash and the
	// in-process verification: the crash is a real SIGKILL from outside,
	// and VerifyJournal checks the invariants in a fresh process.
	ExternalKill bool
}

func (c *Config) defaults() {
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.Ops <= 0 {
		c.Ops = 150
	}
	if c.CheckpointEvery == 0 {
		c.CheckpointEvery = 2 * time.Millisecond
	}
}

// Result reports one run plus its verification.
type Result struct {
	Scenario Scenario
	Seed     int64

	// Workload accounting.
	Acked          int  // commits acked durable (the invariant set)
	Refused        int  // commits failed or refused — never acked
	CheckpointErrs int  // background checkpoint attempts that aborted
	FaultsFired    int  // injected faults that actually fired
	Evictions      int  // blocks demoted to the object store (ObjStore)
	Degraded       bool // engine ended degraded

	// Verification.
	Recovered int // rows present after reopen
	Lost      int // acked commits missing after recovery — MUST be 0
	Torn      int // rows or checkpoints failing integrity — MUST be 0
	Extra     int // unacked commits that survived (allowed)
}

// Ok reports whether the run upheld both recovery promises.
func (r *Result) Ok() bool { return r.Lost == 0 && r.Torn == 0 }

// String renders the one-line summary the CLI prints.
func (r *Result) String() string {
	return fmt.Sprintf("chaos %-10s seed=%d acked=%d refused=%d ckpt_errs=%d faults=%d evictions=%d degraded=%v recovered=%d lost=%d torn=%d extra=%d",
		r.Scenario, r.Seed, r.Acked, r.Refused, r.CheckpointErrs, r.FaultsFired,
		r.Evictions, r.Degraded, r.Recovered, r.Lost, r.Torn, r.Extra)
}

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// payloadFor derives the deterministic payload of commit (worker, seq):
// verification recomputes it instead of trusting anything on disk.
func payloadFor(seed, worker, seq int64) []byte {
	rng := rand.New(rand.NewSource(seed ^ worker<<32 ^ seq ^ 0x5e3779b97f4a7c15))
	p := make([]byte, 32+rng.Intn(96))
	for i := range p {
		p[i] = byte('a' + rng.Intn(26))
	}
	return p
}

func schema() *mainline.Schema {
	return mainline.NewSchema(
		mainline.Field{Name: "worker", Type: mainline.INT64},
		mainline.Field{Name: "seq", Type: mainline.INT64},
		mainline.Field{Name: "sum", Type: mainline.INT64},
		mainline.Field{Name: "payload", Type: mainline.STRING},
	)
}

type ackKey struct{ worker, seq int64 }

// ackedSet is the harness's ground truth: commits the engine acked
// durable, mirrored to an fsynced journal when configured.
type ackedSet struct {
	mu   sync.Mutex
	set  map[ackKey]struct{}
	file *os.File
}

func newAckedSet(path string) (*ackedSet, error) {
	a := &ackedSet{set: make(map[ackKey]struct{})}
	if path != "" {
		f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, err
		}
		a.file = f
	}
	return a, nil
}

// add records one acked commit. The journal line is written and fsynced
// AFTER the engine's ack, so the journal can never claim an ack the
// engine did not give (a kill between ack and journal write only
// under-reports, which weakens but never falsifies verification).
func (a *ackedSet) add(worker, seq int64) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.set[ackKey{worker, seq}] = struct{}{}
	if a.file != nil {
		if _, err := fmt.Fprintf(a.file, "%d %d\n", worker, seq); err != nil {
			return err
		}
		return a.file.Sync()
	}
	return nil
}

func (a *ackedSet) close() {
	if a.file != nil {
		_ = a.file.Close()
	}
}

// arm installs the scenario's fault schedule on the injector. Offsets are
// drawn from rng so each seed tortures a different point of the run.
func arm(inj *fault.Injector, s Scenario, rng *rand.Rand) {
	switch s {
	case FsyncFail:
		inj.AddRule(fault.Rule{
			Op: fault.OpSync, Path: "wal-",
			Skip: 3 + rng.Intn(40), Count: 1, Err: syscall.EIO,
		})
	case TornWrite:
		inj.AddRule(fault.Rule{
			Op: fault.OpWrite, Path: "wal-",
			Skip: 5 + rng.Intn(60), Count: 1,
			TornBytes: 1 + rng.Intn(128), Err: syscall.EIO,
		})
	case ENOSPC:
		// Two checkpoint write sites, several firings each: attempts abort
		// and retry while the workload keeps going.
		inj.AddRule(fault.Rule{
			Op: fault.OpWrite, Path: "chunk/",
			Skip: rng.Intn(3), Count: 2, Err: syscall.ENOSPC,
		})
		inj.AddRule(fault.Rule{
			Op: fault.OpWrite, Path: manifestlog.LogName,
			Skip: rng.Intn(2), Count: 2, Err: syscall.ENOSPC,
		})
	case SIGKILL, ObjStore:
		// No filesystem faults: the crash (and, for ObjStore, the store's
		// own fault schedule) is the fault.
	}
}

// armStore installs the object-store fault schedule: transient Get
// failures (fail-then-succeed), ENOSPC on uploads, and a stalled read.
func armStore(fs *objstore.FaultStore, rng *rand.Rand) {
	fs.AddRule(objstore.Rule{
		Op: objstore.OpGet, Skip: rng.Intn(4), Count: 2, Err: syscall.EIO,
	})
	fs.AddRule(objstore.Rule{
		Op: objstore.OpPut, Skip: 1 + rng.Intn(6), Count: 2, Err: syscall.ENOSPC,
	})
	fs.AddRule(objstore.Rule{
		Op: objstore.OpReadRange, Count: 3, Stall: 2 * time.Millisecond,
	})
}

// Run executes one torture run: workload + faults + crash, then reopen
// and verify. The returned Result is complete even when the invariants
// fail — callers check Result.Ok().
func Run(cfg Config) (*Result, error) {
	cfg.defaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	res := &Result{Scenario: cfg.Scenario, Seed: cfg.Seed}

	inj := fault.NewInjector(fault.OS{}, cfg.Seed)
	arm(inj, cfg.Scenario, rng)

	opts := []mainline.Option{
		mainline.WithDataDir(cfg.Dir),
		mainline.WithFaultFS(inj),
		mainline.WithWALSegmentSize(16 << 10),
	}
	var fstore *objstore.FaultStore
	if cfg.Scenario == ObjStore {
		inner, serr := objstore.NewFSStore(coldDir(cfg.Dir), nil)
		if serr != nil {
			return nil, fmt.Errorf("chaos: cold store: %w", serr)
		}
		fstore = objstore.NewFaultStore(inner)
		armStore(fstore, rng)
		opts = append(opts,
			mainline.WithObjectStoreBackend(fstore),
			mainline.WithBlockCacheBytes(64<<10), // tiny: constant cache churn
			mainline.WithTierSweepInterval(time.Hour),
		)
	}
	eng, err := mainline.Open(opts...)
	if err != nil {
		return nil, fmt.Errorf("chaos: open: %w", err)
	}
	tbl, err := eng.CreateTable("chaos", schema())
	if err != nil {
		return nil, fmt.Errorf("chaos: create table: %w", err)
	}
	acked, err := newAckedSet(cfg.AckedPath)
	if err != nil {
		return nil, err
	}
	defer acked.close()

	// Background checkpointer: runs concurrently with the committers so
	// checkpoint faults land mid-workload.
	ckptStop := make(chan struct{})
	var ckptDone sync.WaitGroup
	var ckptErrs atomic.Int64
	if cfg.CheckpointEvery > 0 {
		ckptDone.Add(1)
		go func() {
			defer ckptDone.Done()
			tick := time.NewTicker(cfg.CheckpointEvery)
			defer tick.Stop()
			for {
				select {
				case <-ckptStop:
					return
				case <-tick.C:
					if _, err := eng.Checkpoint(); err != nil {
						ckptErrs.Add(1)
					}
				}
			}
		}()
	}

	// ObjStore scenario: an evictor keeps demoting frozen blocks to the
	// faulty store while a cold reader forces fetches back through it.
	// Both tolerate refusals — a failed eviction leaves the block
	// resident, a failed fetch fails the scan; neither may corrupt.
	tierStop := make(chan struct{})
	var tierDone sync.WaitGroup
	if cfg.Scenario == ObjStore {
		tierDone.Add(2)
		go func() {
			defer tierDone.Done()
			for {
				select {
				case <-tierStop:
					return
				default:
				}
				eng.RunGC()
				eng.FreezeAll(1)
				_, _ = eng.Admin().EvictAll()
				time.Sleep(300 * time.Microsecond)
			}
		}()
		go func() {
			defer tierDone.Done()
			for {
				select {
				case <-tierStop:
					return
				default:
				}
				_ = eng.View(func(tx *mainline.Txn) error {
					return tbl.Scan(tx, []string{"worker"},
						func(_ mainline.TupleSlot, _ *mainline.Row) bool { return true })
				})
				time.Sleep(500 * time.Microsecond)
			}
		}()
	}

	// SIGKILL scenario: crash from the side once a seed-derived number of
	// acks has landed, while the committers are still running.
	var ackCount atomic.Int64
	crashAfter := int64(0)
	if cfg.Scenario == SIGKILL && !cfg.ExternalKill {
		crashAfter = int64(cfg.Workers*cfg.Ops/4 + rng.Intn(cfg.Workers*cfg.Ops/2+1))
		go func() {
			for ackCount.Load() < crashAfter {
				time.Sleep(200 * time.Microsecond)
			}
			eng.Admin().SimulateCrash()
		}()
	}

	var (
		wg      sync.WaitGroup
		refused atomic.Int64
	)
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func(worker int64) {
			defer wg.Done()
			for seq := int64(0); seq < int64(cfg.Ops); seq++ {
				payload := payloadFor(cfg.Seed, worker, seq)
				sum := int64(crc32.Checksum(payload, crcTable))
				err := eng.Update(func(tx *mainline.Txn) error {
					row := tbl.NewRow()
					row.Set("worker", worker)
					row.Set("seq", seq)
					row.Set("sum", sum)
					row.Set("payload", string(payload))
					_, err := tbl.Insert(tx, row)
					return err
				}, mainline.Durable())
				if err != nil {
					refused.Add(1)
					if errors.Is(err, mainline.ErrDegraded) || errors.Is(err, mainline.ErrEngineClosed) {
						// The log is gone (or the crash already hit):
						// nothing further can be acked.
						return
					}
					continue
				}
				ackCount.Add(1)
				if aerr := acked.add(worker, seq); aerr != nil {
					// Journal failure is harness breakage, not an engine
					// fault; give up on this worker rather than lie.
					return
				}
			}
		}(int64(w))
	}
	wg.Wait()
	close(ckptStop)
	ckptDone.Wait()
	close(tierStop)
	tierDone.Wait()

	res.Acked = len(acked.set)
	res.Refused = int(refused.Load())
	res.CheckpointErrs = int(ckptErrs.Load())
	res.FaultsFired = inj.FiredCount()
	if fstore != nil {
		res.FaultsFired += fstore.FiredCount()
		res.Evictions = int(eng.Stats().Tier.Evictions)
	}
	degraded, _ := eng.Degraded()
	res.Degraded = degraded

	// Waiting for an external kill: leave the engine open and the crash to
	// whoever sent us here. Process exit without Close is itself a crash
	// image, so even an un-killed run verifies honestly afterwards.
	if cfg.ExternalKill {
		return res, nil
	}

	// Crash. For SIGKILL the side goroutine already did (SimulateCrash is
	// idempotent); every other scenario crashes here, so recovery always
	// faces an un-Closed image.
	eng.Admin().SimulateCrash()

	if err := verify(cfg.Dir, cfg.Seed, acked.set, res); err != nil {
		return res, err
	}
	return res, nil
}

// VerifyJournal re-runs verification against an acked journal written by
// a previous process (the CLI's post-SIGKILL mode).
func VerifyJournal(dir, ackedPath string, seed int64) (*Result, error) {
	res := &Result{Scenario: SIGKILL, Seed: seed}
	set := make(map[ackKey]struct{})
	data, err := os.ReadFile(ackedPath)
	if err != nil {
		return nil, err
	}
	var worker, seq int64
	for len(data) > 0 {
		var n int
		if _, err := fmt.Sscanf(string(data), "%d %d\n", &worker, &seq); err != nil {
			break
		}
		for n = 0; n < len(data) && data[n] != '\n'; n++ {
		}
		data = data[min(n+1, len(data)):]
		set[ackKey{worker, seq}] = struct{}{}
	}
	res.Acked = len(set)
	if err := verify(dir, seed, set, res); err != nil {
		return res, err
	}
	return res, nil
}

// verify reopens dir with a clean filesystem (and the run's object store,
// which holds its checkpoints, when there was one) and checks the two
// promises: every acked commit present and untorn, every object of every
// retained checkpoint version matching its recorded size and CRC.
func verify(dir string, seed int64, acked map[ackKey]struct{}, res *Result) error {
	opts := []mainline.Option{mainline.WithDataDir(dir)}
	objects := filepath.Join(dir, "objects")
	if _, err := os.Stat(coldDir(dir)); err == nil {
		objects = coldDir(dir)
		opts = append(opts, mainline.WithObjectStore(objects))
	}
	eng, err := mainline.Open(opts...)
	if err != nil {
		return fmt.Errorf("chaos: reopen for verify: %w", err)
	}
	defer eng.Close()
	tbl := eng.Table("chaos")
	if tbl == nil {
		if len(acked) > 0 {
			res.Lost = len(acked)
			return nil
		}
		return nil
	}
	recovered := make(map[ackKey]struct{})
	err = eng.View(func(tx *mainline.Txn) error {
		return tbl.Scan(tx, []string{"worker", "seq", "sum", "payload"},
			func(_ mainline.TupleSlot, row *mainline.Row) bool {
				res.Recovered++
				k := ackKey{row.Int64("worker"), row.Int64("seq")}
				recovered[k] = struct{}{}
				payload := row.Bytes("payload")
				want := payloadFor(seed, k.worker, k.seq)
				if string(payload) != string(want) ||
					row.Int64("sum") != int64(crc32.Checksum(payload, crcTable)) {
					res.Torn++
				}
				return true
			})
	})
	if err != nil {
		return fmt.Errorf("chaos: verify scan: %w", err)
	}
	for k := range acked {
		if _, ok := recovered[k]; !ok {
			res.Lost++
		}
	}
	for k := range recovered {
		if _, ok := acked[k]; !ok {
			res.Extra++
		}
	}
	// Retained versions must reference only fully written objects: a
	// version record is appended after every object it names is durable,
	// so a crash or a write fault can orphan objects but never leave a
	// version pointing at a missing or torn one.
	log, err := manifestlog.Open(fault.OS{}, filepath.Join(dir, manifestlog.LogName))
	if err != nil {
		res.Torn++
		return nil
	}
	store, err := objstore.NewFSStore(objects, nil)
	if err != nil {
		return err
	}
	for _, v := range log.Versions() {
		for _, tc := range v.Tables {
			for _, c := range tc.Chunks {
				for _, ref := range []manifestlog.ObjectRef{c.ObjectRef, c.Slots} {
					if _, err := objstore.GetVerified(store, ref); err != nil {
						res.Torn++
					}
				}
			}
		}
	}
	return nil
}
