package ompi

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/mca"
	"repro/internal/ompi/btl"
	"repro/internal/ompi/coll"
	"repro/internal/ompi/crcp"
	"repro/internal/ompi/pml"
	"repro/internal/opal/crs"
	"repro/internal/opal/inc"
	"repro/internal/trace"
	"repro/internal/vfs"
)

// testWorld builds n Procs on a fresh fabric, each with its own
// node-local memory filesystem for snapshots.
func testWorld(t testing.TB, n int, params *mca.Params, crsComp crs.Component) ([]*Proc, []*vfs.Mem) {
	t.Helper()
	fabric := btl.AdaptFabric(btl.NewFabric())
	procs := make([]*Proc, n)
	disks := make([]*vfs.Mem, n)
	for r := 0; r < n; r++ {
		disks[r] = vfs.NewMem()
		p, err := NewProc(Config{
			JobID: 1, Rank: r, Size: n,
			Node: fmt.Sprintf("n%d", r), PID: 100 + r,
			Fabric: fabric, Params: params,
			CRS: crsComp, Ins: trace.New(),
		})
		if err != nil {
			t.Fatalf("NewProc(%d): %v", r, err)
		}
		procs[r] = p
	}
	return procs, disks
}

// ringApp advances a counter around a ring: each step sends the local
// sum to the next rank, receives from the previous, and accumulates.
// Termination: at a fixed target iteration (target > 0), a fixed number
// of extra steps after (re)start (extra > 0), or a fixed number of
// steps after the first checkpoint (afterCkpt > 0) — all uniform across
// ranks, as collectives require.
type ringApp struct {
	target    int
	extra     int
	afterCkpt int

	started   bool
	startIter int
	state     struct {
		Iter int
		Sum  int64
	}
}

func (a *ringApp) Setup(p *Proc) error {
	return p.RegisterState("ring", &a.state)
}

func (a *ringApp) Step(p *Proc) (bool, error) {
	if !a.started {
		a.started = true
		a.startIter = a.state.Iter
	}
	next := (p.Rank() + 1) % p.Size()
	prev := (p.Rank() - 1 + p.Size()) % p.Size()
	if err := p.Send(next, 1, coll.Int64sToBytes([]int64{a.state.Sum + int64(p.Rank())})); err != nil {
		return false, err
	}
	data, _, err := p.Recv(prev, 1)
	if err != nil {
		return false, err
	}
	vals, err := coll.BytesToInt64s(data)
	if err != nil {
		return false, err
	}
	a.state.Sum += vals[0]
	a.state.Iter++
	switch {
	case a.target > 0 && a.state.Iter >= a.target:
		return true, nil
	case a.extra > 0 && a.state.Iter >= a.startIter+a.extra:
		return true, nil
	case a.afterCkpt > 0 && p.Checkpoints() > 0 && a.state.Iter >= a.startIter+a.afterCkpt:
		return true, nil
	}
	return false, nil
}

// runWorld runs app instances on every proc concurrently.
func runWorld(t *testing.T, procs []*Proc, apps []App, restores []*RestoreSpec) []error {
	t.Helper()
	errs := make([]error, len(procs))
	var wg sync.WaitGroup
	for r := range procs {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			var rs *RestoreSpec
			if restores != nil {
				rs = restores[r]
			}
			errs[r] = procs[r].Run(apps[r], rs)
		}(r)
	}
	wg.Wait()
	return errs
}

// expectedRingSums runs the ring arithmetic serially to get the ground
// truth for n ranks after iters steps.
func expectedRingSums(n, iters int) []int64 {
	sums := make([]int64, n)
	for i := 0; i < iters; i++ {
		sent := make([]int64, n)
		for r := 0; r < n; r++ {
			sent[r] = sums[r] + int64(r)
		}
		for r := 0; r < n; r++ {
			prev := (r - 1 + n) % n
			sums[r] += sent[prev]
		}
	}
	return sums
}

func TestPlainRunCompletes(t *testing.T) {
	const n, iters = 4, 12
	procs, _ := testWorld(t, n, nil, nil)
	apps := make([]App, n)
	ras := make([]*ringApp, n)
	for r := 0; r < n; r++ {
		ras[r] = &ringApp{target: iters}
		apps[r] = ras[r]
	}
	for r, err := range runWorld(t, procs, apps, nil) {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	want := expectedRingSums(n, iters)
	for r := 0; r < n; r++ {
		if ras[r].state.Sum != want[r] {
			t.Errorf("rank %d sum = %d, want %d", r, ras[r].state.Sum, want[r])
		}
		if !procs[r].finalized {
			t.Errorf("rank %d not finalized", r)
		}
	}
}

// deliverCheckpoint sends a terminate/continue directive to every proc
// and collects the participation results.
func deliverCheckpoint(procs []*Proc, disks []*vfs.Mem, interval int, terminate bool) []ParticipationResult {
	n := len(procs)
	ch := make(chan ParticipationResult, n)
	for r := 0; r < n; r++ {
		procs[r].Deliver(&Directive{
			Interval: interval, FS: disks[r], Dir: "snap",
			Terminate: terminate, Result: ch,
		})
	}
	out := make([]ParticipationResult, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, <-ch)
	}
	return out
}

func TestCheckpointTerminateRestartResumesExactly(t *testing.T) {
	const n = 4
	params := mca.NewParams()
	procs, disks := testWorld(t, n, params, nil)
	apps := make([]App, n)
	for r := 0; r < n; r++ {
		apps[r] = &ringApp{} // unbounded: the terminate directive ends it
	}

	// Launch, then checkpoint-and-terminate mid-run.
	var results []ParticipationResult
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		time.Sleep(5 * time.Millisecond) // let some steps happen
		results = deliverCheckpoint(procs, disks, 0, true)
	}()
	errs := runWorld(t, procs, apps, nil)
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("first run rank %d: %v", r, err)
		}
	}
	fileSets := make([][]string, n)
	for _, res := range results {
		if res.Err != nil {
			t.Fatalf("participation rank %d: %v", res.Rank, res.Err)
		}
		if res.Component != "simcr" {
			t.Errorf("component = %q", res.Component)
		}
		fileSets[res.Rank] = res.Files
	}

	// Restart into a brand-new world (fresh fabric and procs) and run
	// 10 more steps.
	procs2, _ := testWorld(t, n, params, nil)
	apps2 := make([]App, n)
	ras2 := make([]*ringApp, n)
	restores := make([]*RestoreSpec, n)
	for r := 0; r < n; r++ {
		ras2[r] = &ringApp{extra: 10}
		apps2[r] = ras2[r]
		restores[r] = &RestoreSpec{FS: disks[r], Dir: "snap", Files: fileSets[r]}
	}
	for r, err := range runWorld(t, procs2, apps2, restores) {
		if err != nil {
			t.Fatalf("restarted rank %d: %v", r, err)
		}
	}
	// All ranks checkpointed at a uniform frontier, so the final
	// iteration counts agree, and the sums match a fault-free run of
	// the same length.
	finalIter := ras2[0].state.Iter
	if finalIter < 10 {
		t.Fatalf("final iter = %d, want >= 10", finalIter)
	}
	want := expectedRingSums(n, finalIter)
	for r := 0; r < n; r++ {
		if !procs2[r].Restarted() {
			t.Errorf("rank %d does not report Restarted", r)
		}
		if ras2[r].state.Iter != finalIter {
			t.Errorf("rank %d iter = %d, want %d (cut not at a uniform frontier)", r, ras2[r].state.Iter, finalIter)
		}
		if ras2[r].state.Sum != want[r] {
			t.Errorf("rank %d sum = %d, want %d (restart diverged from fault-free run)", r, ras2[r].state.Sum, want[r])
		}
	}
}

func TestCheckpointContinueRunContinues(t *testing.T) {
	const n = 3
	procs, disks := testWorld(t, n, nil, nil)
	apps := make([]App, n)
	ras := make([]*ringApp, n)
	for r := 0; r < n; r++ {
		ras[r] = &ringApp{afterCkpt: 5} // run until checkpointed, then 5+ steps
		apps[r] = ras[r]
	}
	var results []ParticipationResult
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		results = deliverCheckpoint(procs, disks, 0, false)
	}()
	errs := runWorld(t, procs, apps, nil)
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	for _, res := range results {
		if res.Err != nil {
			t.Fatalf("participation rank %d: %v", res.Rank, res.Err)
		}
	}
	finalIter := ras[0].state.Iter
	want := expectedRingSums(n, finalIter)
	for r := 0; r < n; r++ {
		if ras[r].state.Iter != finalIter {
			t.Errorf("rank %d iter = %d, want %d", r, ras[r].state.Iter, finalIter)
		}
		if ras[r].state.Sum != want[r] {
			t.Errorf("rank %d sum = %d, want %d (checkpoint perturbed the run)", r, ras[r].state.Sum, want[r])
		}
	}
	// Local snapshots exist on every node disk.
	for r := 0; r < n; r++ {
		if !vfs.Exists(disks[r], "snap/"+crs.ImageFile) {
			t.Errorf("rank %d: no image on node disk", r)
		}
	}
}

// inflightApp exercises messages crossing a checkpoint boundary: rank 0
// Isends a burst early and rank 1 receives it only near the end.
type inflightApp struct {
	burst      int
	runForever bool // first run: ended by the terminate directive
	state      struct {
		Iter     int
		Received int
		Payloads []byte
	}
}

func (a *inflightApp) Setup(p *Proc) error {
	return p.RegisterState("inflight", &a.state)
}

func (a *inflightApp) Step(p *Proc) (bool, error) {
	switch {
	case p.Rank() == 0 && a.state.Iter == 0:
		for i := 0; i < a.burst; i++ {
			if _, err := p.Isend(1, 7, []byte{byte(i)}); err != nil {
				return false, err
			}
		}
	case p.Rank() == 1 && a.state.Iter == 8:
		for i := 0; i < a.burst; i++ {
			data, _, err := p.Recv(0, 7)
			if err != nil {
				return false, err
			}
			a.state.Received++
			a.state.Payloads = append(a.state.Payloads, data[0])
		}
	}
	a.state.Iter++
	if a.runForever {
		return false, nil
	}
	return a.state.Iter >= 10, nil
}

func TestInFlightMessagesSurviveRestart(t *testing.T) {
	const n = 2
	const burst = 5
	procs, disks := testWorld(t, n, nil, nil)
	apps := []App{
		&inflightApp{burst: burst, runForever: true},
		&inflightApp{burst: burst, runForever: true},
	}
	var results []ParticipationResult
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		// Checkpoint while the burst is (likely) still undelivered.
		results = deliverCheckpoint(procs, disks, 0, true)
	}()
	errs := runWorld(t, procs, apps, nil)
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	fileSets := make([][]string, n)
	for _, res := range results {
		if res.Err != nil {
			t.Fatalf("participation: %v", res.Err)
		}
		fileSets[res.Rank] = res.Files
	}
	// Restart and finish: rank 1 must receive all burst messages exactly
	// once, in order, regardless of where the cut fell.
	procs2, _ := testWorld(t, n, nil, nil)
	apps2 := []*inflightApp{{burst: burst}, {burst: burst}}
	restores := []*RestoreSpec{
		{FS: disks[0], Dir: "snap", Files: fileSets[0]},
		{FS: disks[1], Dir: "snap", Files: fileSets[1]},
	}
	for r, err := range runWorld(t, procs2, []App{apps2[0], apps2[1]}, restores) {
		if err != nil {
			t.Fatalf("restarted rank %d: %v", r, err)
		}
	}
	if apps2[1].state.Received != burst {
		t.Fatalf("rank 1 received %d, want %d", apps2[1].state.Received, burst)
	}
	for i, b := range apps2[1].state.Payloads {
		if b != byte(i) {
			t.Errorf("payload %d = %d (loss, duplication or reordering)", i, b)
		}
	}
}

func TestSynchronousCheckpointAPI(t *testing.T) {
	const n = 3
	procs, disks := testWorld(t, n, nil, nil)
	// Wire the sync request to a fake global coordinator that simply
	// delivers directives to every rank.
	results := make(chan ParticipationResult, n)
	for r := 0; r < n; r++ {
		procs[r].cfg.SyncCheckpoint = func() error {
			for i := 0; i < n; i++ {
				procs[i].Deliver(&Directive{Interval: 0, FS: disks[i], Dir: "snap", Result: results})
			}
			return nil
		}
	}
	apps := make([]App, n)
	type st struct{ Iter int }
	states := make([]*st, n)
	for r := 0; r < n; r++ {
		r := r
		states[r] = &st{}
		apps[r] = FuncApp{
			SetupFn: func(p *Proc) error { return p.RegisterState("s", states[r]) },
			StepFn: func(p *Proc) (bool, error) {
				states[r].Iter++
				if states[r].Iter == 3 {
					if err := p.Checkpoint(); err != nil {
						return false, err
					}
				}
				return states[r].Iter >= 5, nil
			},
		}
	}
	for r, err := range runWorld(t, procs, apps, nil) {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	for i := 0; i < n; i++ {
		res := <-results
		if res.Err != nil {
			t.Fatalf("participation rank %d: %v", res.Rank, res.Err)
		}
	}
	for r := 0; r < n; r++ {
		if !vfs.Exists(disks[r], "snap/"+crs.ImageFile) {
			t.Errorf("rank %d snapshot missing", r)
		}
	}
}

func TestSynchronousCheckpointWithoutRuntime(t *testing.T) {
	procs, _ := testWorld(t, 1, nil, nil)
	apps := []App{FuncApp{StepFn: func(p *Proc) (bool, error) {
		err := p.Checkpoint()
		if !errors.Is(err, ErrNoRuntime) {
			return true, fmt.Errorf("Checkpoint err = %v, want ErrNoRuntime", err)
		}
		return true, nil
	}}}
	for r, err := range runWorld(t, procs, apps, nil) {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
}

func TestSelfComponentCheckpointRestart(t *testing.T) {
	const n = 2
	params := mca.NewParams()
	type selfState struct{ Iter int }
	mkApps := func(states []*selfState, requireCkpt bool) []App {
		apps := make([]App, n)
		for r := 0; r < n; r++ {
			r := r
			apps[r] = FuncApp{
				SetupFn: func(p *Proc) error {
					p.RegisterSelfCallbacks(&crs.SelfCallbacks{
						Checkpoint: func(fsys vfs.FS, dir string) error {
							return fsys.WriteFile(dir+"/iter.txt", []byte(fmt.Sprintf("%d", states[r].Iter)))
						},
						Restart: func(fsys vfs.FS, dir string) error {
							data, err := fsys.ReadFile(dir + "/iter.txt")
							if err != nil {
								return err
							}
							_, err = fmt.Sscanf(string(data), "%d", &states[r].Iter)
							return err
						},
					})
					return nil
				},
				StepFn: func(p *Proc) (bool, error) {
					// Exchange a token so the coordination protocol has
					// traffic to quiesce even under SELF.
					peer := 1 - p.Rank()
					if _, err := p.Isend(peer, 2, []byte("tok")); err != nil {
						return false, err
					}
					if _, _, err := p.Recv(peer, 2); err != nil {
						return false, err
					}
					states[r].Iter++
					done := states[r].Iter >= 6
					if requireCkpt {
						done = done && p.Checkpoints() > 0
					}
					return done, nil
				},
			}
		}
		return apps
	}

	statesA := []*selfState{{}, {}}
	procs, disks := testWorld(t, n, params, &crs.Self{})
	var results []ParticipationResult
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		results = deliverCheckpoint(procs, disks, 0, true)
	}()
	errs := runWorld(t, procs, mkApps(statesA, true), nil)
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	fileSets := make([][]string, n)
	for _, res := range results {
		if res.Err != nil {
			t.Fatalf("participation: %v", res.Err)
		}
		if res.Component != "self" {
			t.Errorf("component = %q, want self", res.Component)
		}
		fileSets[res.Rank] = res.Files
	}
	// SELF snapshots contain exactly what the callback wrote.
	for r := 0; r < n; r++ {
		if len(fileSets[r]) != 1 || fileSets[r][0] != "iter.txt" {
			t.Errorf("rank %d files = %v", r, fileSets[r])
		}
	}
	statesB := []*selfState{{}, {}}
	procs2, _ := testWorld(t, n, params, &crs.Self{})
	restores := make([]*RestoreSpec, n)
	for r := 0; r < n; r++ {
		restores[r] = &RestoreSpec{FS: disks[r], Dir: "snap", Files: fileSets[r]}
	}
	for r, err := range runWorld(t, procs2, mkApps(statesB, false), restores) {
		if err != nil {
			t.Fatalf("restarted rank %d: %v", r, err)
		}
	}
	for r := 0; r < n; r++ {
		if statesB[r].Iter != 6 {
			t.Errorf("rank %d iter = %d, want 6", r, statesB[r].Iter)
		}
	}
}

func TestApplicationINCOrdering(t *testing.T) {
	procs, disks := testWorld(t, 1, nil, nil)
	var order []string
	var mu sync.Mutex
	note := func(s string) {
		mu.Lock()
		order = append(order, s)
		mu.Unlock()
	}
	apps := []App{FuncApp{
		SetupFn: func(p *Proc) error {
			var prev inc.Callback
			prev = p.RegisterINC(inc.WrapCallback("app",
				func(s inc.State) error { note("app.before." + s.String()); return nil },
				func(s inc.State) error { note("app.after." + s.String()); return nil },
				func(s inc.State) error { return prev(s) }))
			return nil
		},
		StepFn: func(p *Proc) (bool, error) { return true, nil },
	}}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		deliverCheckpoint(procs, disks, 0, false)
	}()
	// One step is not enough: the directive must land before a boundary.
	apps[0] = FuncApp{
		SetupFn: apps[0].(FuncApp).SetupFn,
		StepFn: func(p *Proc) (bool, error) {
			time.Sleep(5 * time.Millisecond)
			mu.Lock()
			n := len(order)
			mu.Unlock()
			return n >= 4, nil // stop after the checkpoint notifications ran
		},
	}
	for r, err := range runWorld(t, procs, apps, nil) {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	joined := strings.Join(order, ",")
	// The application INC must run before the library prepares
	// (app.before.checkpoint first) and after it resumes
	// (app.after.continue last).
	if len(order) < 4 ||
		order[0] != "app.before.checkpoint" ||
		order[1] != "app.after.checkpoint" ||
		order[2] != "app.before.continue" ||
		order[3] != "app.after.continue" {
		t.Errorf("INC order = %s", joined)
	}
}

func TestRegisterStateValidation(t *testing.T) {
	procs, _ := testWorld(t, 1, nil, nil)
	p := procs[0]
	if err := p.RegisterState("x", nil); err == nil {
		t.Error("RegisterState(nil) succeeded")
	}
	v := 1
	if err := p.RegisterState("x", &v); err != nil {
		t.Fatalf("RegisterState: %v", err)
	}
	if err := p.RegisterState("x", &v); err == nil {
		t.Error("duplicate RegisterState succeeded")
	}
	if err := p.RegisterState("y", v); err == nil {
		t.Error("RegisterState of a non-pointer succeeded")
	}
	// Types the image codec cannot carry are refused here, not at the
	// first checkpoint, and the error names the field.
	type inner struct {
		When time.Time
	}
	for field, ptr := range map[string]any{
		"Any":                &struct{ Any any }{},
		"Ch":                 &struct{ Ch chan int }{},
		"Fn":                 &struct{ Fn func() }{},
		"Z":                  &struct{ Z complex128 }{},
		"Deep[value][].When": &struct{ Deep map[string][]inner }{},
		"Ptr":                &struct{ Ptr *chan int }{},
	} {
		err := p.RegisterState("bad-"+field, ptr)
		if err == nil || !strings.Contains(err.Error(), "."+field+":") {
			t.Errorf("RegisterState with a bad %s field: err = %v, want one naming the field", field, err)
		}
	}
	if err := p.RegisterState("time", &time.Time{}); err == nil || !strings.Contains(err.Error(), "no exported fields") {
		t.Errorf("RegisterState(*time.Time): err = %v, want no exported fields", err)
	}
	if err := p.RegisterState("quiet", &struct {
		Fine  int
		quiet chan int
	}{}); err != nil {
		t.Errorf("unexported chan field refused: %v", err)
	}
}

func TestImageRestoreValidation(t *testing.T) {
	procs, _ := testWorld(t, 2, nil, nil)
	v := 42
	if err := procs[0].RegisterState("v", &v); err != nil {
		t.Fatal(err)
	}
	img, err := procs[0].Image()
	if err != nil {
		t.Fatalf("Image: %v", err)
	}
	// Wrong rank.
	if err := procs[1].RestoreImage(img); err == nil {
		t.Error("RestoreImage accepted wrong-rank image")
	}
	// Unregistered state.
	fresh, _ := testWorld(t, 2, nil, nil)
	if err := fresh[0].RestoreImage(img); err == nil {
		t.Error("RestoreImage accepted image with unregistered state")
	}
	// Correct restore.
	v2 := 0
	if err := fresh[0].RegisterState("v", &v2); err != nil {
		t.Fatal(err)
	}
	if err := fresh[0].RestoreImage(img); err != nil {
		t.Fatalf("RestoreImage: %v", err)
	}
	if v2 != 42 {
		t.Errorf("restored v = %d, want 42", v2)
	}
	// Corrupt image.
	if err := fresh[0].RestoreImage([]byte("garbage")); err == nil {
		t.Error("RestoreImage accepted garbage")
	}
}

func TestNewProcValidation(t *testing.T) {
	if _, err := NewProc(Config{Rank: 0, Size: 0}); err == nil {
		t.Error("NewProc accepted size 0")
	}
	if _, err := NewProc(Config{Rank: 2, Size: 2, Fabric: btl.AdaptFabric(btl.NewFabric())}); err == nil {
		t.Error("NewProc accepted rank out of range")
	}
	if _, err := NewProc(Config{Rank: 0, Size: 1}); err == nil {
		t.Error("NewProc accepted nil fabric")
	}
}

func TestNegativeUserTagsRejected(t *testing.T) {
	procs, _ := testWorld(t, 2, nil, nil)
	apps := []App{
		FuncApp{StepFn: func(p *Proc) (bool, error) {
			if err := p.Send(1, -3, nil); err == nil {
				return true, fmt.Errorf("negative tag accepted by Send")
			}
			if _, err := p.Isend(1, -3, nil); err == nil {
				return true, fmt.Errorf("negative tag accepted by Isend")
			}
			return true, nil
		}},
		FuncApp{StepFn: func(p *Proc) (bool, error) { return true, nil }},
	}
	for r, err := range runWorld(t, procs, apps, nil) {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
}

func TestCRCPNoneSelectedByParam(t *testing.T) {
	params := mca.NewParams()
	params.Set("crcp", "none")
	fabric := btl.AdaptFabric(btl.NewFabric())
	f := crcp.NewFramework()
	comp, err := f.Select(params)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewProc(Config{Rank: 0, Size: 1, Fabric: fabric, Params: params, CRCP: comp, Ins: trace.New()})
	if err != nil {
		t.Fatal(err)
	}
	// With crcp=none a checkpoint directive still captures the process
	// (there is nothing in flight for a 1-rank job).
	disks := vfs.NewMem()
	res := make(chan ParticipationResult, 1)
	p.Deliver(&Directive{Interval: 0, FS: disks, Dir: "snap", Result: res})
	apps := []App{FuncApp{StepFn: func(p *Proc) (bool, error) { return true, nil }}}
	errs := runWorld(t, []*Proc{p}, apps, nil)
	if errs[0] != nil {
		t.Fatalf("run: %v", errs[0])
	}
	r := <-res
	if r.Err != nil {
		t.Fatalf("participation: %v", r.Err)
	}
}

// TestStateExclusionHints verifies the paper's §6.4 refinement: state
// registered with an exclusion hint stays out of the process image, so
// it restores to its Setup-time zero value while included state resumes.
func TestStateExclusionHints(t *testing.T) {
	procs, disks := testWorld(t, 1, nil, nil)
	type st struct{ V int }
	kept := &st{}
	scratch := &st{}
	stepped := make(chan struct{})
	var once sync.Once
	apps := []App{FuncApp{
		SetupFn: func(p *Proc) error {
			if err := p.RegisterState("kept", kept); err != nil {
				return err
			}
			return p.RegisterStateHinted("scratch", scratch, StateHints{Exclude: true})
		},
		StepFn: func(p *Proc) (bool, error) {
			kept.V++
			scratch.V += 100
			once.Do(func() { close(stepped) })
			return false, nil
		},
	}}
	var results []ParticipationResult
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		// Let the app run at least one step first, so the checkpointed
		// image is guaranteed to hold nonzero state.
		<-stepped
		results = deliverCheckpoint(procs, disks, 0, true)
	}()
	errs := runWorld(t, procs, apps, nil)
	wg.Wait()
	if errs[0] != nil {
		t.Fatal(errs[0])
	}
	if results[0].Err != nil {
		t.Fatal(results[0].Err)
	}
	keptAt, scratchAt := kept.V, scratch.V
	if keptAt == 0 || scratchAt == 0 {
		t.Fatalf("app never ran (kept=%d scratch=%d)", keptAt, scratchAt)
	}

	// Restore into a fresh proc: kept comes back, scratch is zero.
	procs2, _ := testWorld(t, 1, nil, nil)
	kept2 := &st{}
	scratch2 := &st{}
	apps2 := []App{FuncApp{
		SetupFn: func(p *Proc) error {
			if err := p.RegisterState("kept", kept2); err != nil {
				return err
			}
			return p.RegisterStateHinted("scratch", scratch2, StateHints{Exclude: true})
		},
		StepFn: func(p *Proc) (bool, error) { return true, nil },
	}}
	restores := []*RestoreSpec{{FS: disks[0], Dir: "snap", Files: results[0].Files}}
	for r, err := range runWorld(t, procs2, apps2, restores) {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	if kept2.V != keptAt {
		t.Errorf("kept state = %d, want %d", kept2.V, keptAt)
	}
	if scratch2.V != 0 {
		t.Errorf("excluded state leaked into the image: %d", scratch2.V)
	}
}

// TestProcMPISurface exercises the full MPI-facing method surface of
// Proc in one structured job: nonblocking pt2pt with Wait/Test/Waitall,
// Probe/Iprobe, and every collective wrapper.
func TestProcMPISurface(t *testing.T) {
	const n = 4
	procs, _ := testWorld(t, n, nil, nil)
	apps := make([]App, n)
	for r := 0; r < n; r++ {
		apps[r] = FuncApp{StepFn: func(p *Proc) (bool, error) {
			if p.Node() == "" || p.PID() == 0 || p.Engine() == nil {
				return true, fmt.Errorf("accessors broken: node=%q pid=%d", p.Node(), p.PID())
			}
			next := (p.Rank() + 1) % p.Size()
			prev := (p.Rank() - 1 + p.Size()) % p.Size()

			// Nonblocking pair + Wait.
			hs, err := p.Isend(next, 4, []byte{byte(p.Rank())})
			if err != nil {
				return true, err
			}
			hr, err := p.Irecv(prev, 4)
			if err != nil {
				return true, err
			}
			data, st, err := p.Wait(hr)
			if err != nil {
				return true, err
			}
			if st.Source != prev || data[0] != byte(prev) {
				return true, fmt.Errorf("irecv got %v from %d", data, st.Source)
			}
			if err := p.Waitall([]pml.Request{hs}); err != nil {
				return true, err
			}

			// Probe + Iprobe + Test.
			if _, err := p.Isend(next, 5, []byte("probe")); err != nil {
				return true, err
			}
			pst, err := p.Probe(prev, 5)
			if err != nil {
				return true, err
			}
			if pst.Size != 5 {
				return true, fmt.Errorf("probe size %d", pst.Size)
			}
			if _, ok, err := p.Iprobe(prev, 5); err != nil || !ok {
				return true, fmt.Errorf("iprobe = %v %v", ok, err)
			}
			hr2, err := p.Irecv(prev, 5)
			if err != nil {
				return true, err
			}
			for {
				done, d2, _, err := p.Test(hr2)
				if err != nil {
					return true, err
				}
				if done {
					if string(d2) != "probe" {
						return true, fmt.Errorf("test payload %q", d2)
					}
					break
				}
			}

			// Collectives.
			if err := p.Barrier(); err != nil {
				return true, err
			}
			bc, err := p.Bcast(0, []byte{42})
			if err != nil || bc[0] != 42 {
				return true, fmt.Errorf("bcast %v %v", bc, err)
			}
			red, err := p.Reduce(0, coll.Int64sToBytes([]int64{1}), coll.SumInt64)
			if err != nil {
				return true, err
			}
			if p.Rank() == 0 {
				v, _ := coll.BytesToInt64s(red)
				if v[0] != int64(p.Size()) {
					return true, fmt.Errorf("reduce %v", v)
				}
			}
			g, err := p.Gather(1, []byte{byte(p.Rank())})
			if err != nil {
				return true, err
			}
			if p.Rank() == 1 && len(g) != p.Size() {
				return true, fmt.Errorf("gather %v", g)
			}
			var blocks [][]byte
			if p.Rank() == 2 {
				for q := 0; q < p.Size(); q++ {
					blocks = append(blocks, []byte{byte(q + 10)})
				}
			}
			sc, err := p.Scatter(2, blocks)
			if err != nil || sc[0] != byte(p.Rank()+10) {
				return true, fmt.Errorf("scatter %v %v", sc, err)
			}
			ag, err := p.Allgather([]byte{byte(p.Rank())})
			if err != nil || len(ag) != p.Size() {
				return true, fmt.Errorf("allgather %v %v", ag, err)
			}
			a2a := make([][]byte, p.Size())
			for q := range a2a {
				a2a[q] = []byte{byte(p.Rank()), byte(q)}
			}
			res, err := p.Alltoall(a2a)
			if err != nil {
				return true, err
			}
			for q := range res {
				if res[q][0] != byte(q) || res[q][1] != byte(p.Rank()) {
					return true, fmt.Errorf("alltoall from %d = %v", q, res[q])
				}
			}
			return true, nil
		}}
	}
	for r, err := range runWorld(t, procs, apps, nil) {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
}

// TestCRSFailureTriggersErrorINC injects a CRS failure and verifies the
// error notification path (ft_event ERROR) runs and the directive
// reports the failure.
func TestCRSFailureTriggersErrorINC(t *testing.T) {
	// The none CRS component always fails to checkpoint.
	procs, disks := testWorld(t, 1, nil, &crs.None{})
	var sawError bool
	apps := []App{FuncApp{
		SetupFn: func(p *Proc) error {
			var prev inc.Callback
			prev = p.RegisterINC(func(s inc.State) error {
				if s == inc.StateError {
					sawError = true
				}
				return prev(s)
			})
			return nil
		},
		StepFn: func(p *Proc) (bool, error) {
			return p.Checkpoints() > 0 || sawError, nil
		},
	}}
	res := make(chan ParticipationResult, 1)
	procs[0].Deliver(&Directive{Interval: 0, FS: disks[0], Dir: "snap", Result: res})
	errs := runWorld(t, procs, apps, nil)
	if errs[0] != nil {
		t.Fatalf("run: %v", errs[0])
	}
	r := <-res
	if r.Err == nil {
		t.Fatal("participation succeeded with the none CRS")
	}
	if !sawError {
		t.Error("application INC never saw the ERROR state")
	}
}
