package pstore_test

import (
	"context"
	"testing"
	"time"

	"pstore"
)

// TestPublicAPIEndToEnd drives the whole public surface the way a
// downstream user would: engine + benchmark + live migration + predictive
// planning, at a tiny scale.
func TestPublicAPIEndToEnd(t *testing.T) {
	cfg := pstore.EngineConfig{
		MaxMachines:          3,
		PartitionsPerMachine: 2,
		Buckets:              120,
		ServiceTime:          0,
		QueueCapacity:        4096,
		InitialMachines:      1,
	}
	eng, err := pstore.NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := pstore.RegisterB2W(eng); err != nil {
		t.Fatal(err)
	}
	eng.Start()
	defer eng.Stop()

	spec := pstore.B2WLoadSpec{Carts: 300, Checkouts: 80, Stocks: 150, LinesPerCart: 2, Seed: 1}
	if err := pstore.LoadB2W(eng, spec); err != nil {
		t.Fatal(err)
	}
	if rows := eng.TotalRows(); rows != 530 {
		t.Fatalf("loaded %d rows, want 530", rows)
	}

	// Live migration through the facade.
	sq, err := pstore.NewSquall(eng, pstore.DefaultSquallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := sq.Reconfigure(1, 3, 0); err != nil {
		t.Fatal(err)
	}
	if eng.ActiveMachines() != 3 {
		t.Fatalf("ActiveMachines = %d, want 3", eng.ActiveMachines())
	}
	if rows := eng.TotalRows(); rows != 530 {
		t.Fatalf("rows after migration = %d, want 530", rows)
	}

	// Replay a short trace through the benchmark driver.
	trace, err := pstore.SyntheticB2W(pstore.DefaultB2WConfig(2, 1))
	if err != nil {
		t.Fatal(err)
	}
	short := trace.Slice(0, 30)
	driver := &pstore.B2WDriver{Eng: eng, Spec: spec, Seed: 2}
	stats, err := driver.Run(context.Background(), short, 2*time.Millisecond, 0.001)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Executed == 0 {
		t.Fatal("driver executed nothing")
	}

	// Forecast and plan through the facade.
	day := 48
	vals := make([]float64, 8*day)
	for i := range vals {
		vals[i] = 100 + 80*float64(i%day)/float64(day)
	}
	spar := pstore.NewSPAR(day, 3, 4)
	if err := spar.Fit(vals[:6*day]); err != nil {
		t.Fatal(err)
	}
	forecast := make([]float64, day)
	for tau := 1; tau <= day; tau++ {
		v, err := spar.Forecast(vals[:7*day], tau)
		if err != nil {
			t.Fatal(err)
		}
		forecast[tau-1] = v
	}
	mre, err := pstore.MRE(vals[7*day:8*day], forecast)
	if err != nil {
		t.Fatal(err)
	}
	if mre > 0.05 {
		t.Errorf("SPAR MRE %.3f on a deterministic ramp, want near zero", mre)
	}

	model := pstore.MigrationModel{Q: 100, QMax: 130, D: 4, P: 2}
	pl := pstore.Planner{Model: model}
	plan, err := pl.BestMoves(forecast, 2)
	if err != nil {
		t.Fatal(err)
	}
	if plan.FinalMachines < 1 {
		t.Fatalf("plan ends with %d machines", plan.FinalMachines)
	}

	// Schedules and experiment registry round out the surface.
	sched, err := pstore.BuildSchedule(3, 14, 1)
	if err != nil {
		t.Fatal(err)
	}
	if sched.NumRounds() != 11 {
		t.Errorf("3->14 schedule has %d rounds, want 11", sched.NumRounds())
	}
	if len(pstore.Experiments()) < 15 {
		t.Errorf("only %d experiments registered", len(pstore.Experiments()))
	}
	if _, err := pstore.RunExperiment("table1", pstore.ExperimentOptions{Quick: true, Seed: 1}); err != nil {
		t.Fatal(err)
	}
}

// TestFacadeCluster drives the cluster runtime through the facade: build,
// bootstrap, manual move, event stream, stats, stop.
func TestFacadeCluster(t *testing.T) {
	spec := pstore.B2WLoadSpec{Carts: 300, Checkouts: 80, Stocks: 150, LinesPerCart: 2, Seed: 1}
	n, err := pstore.OpenNode(pstore.NodeConfig{
		Store: pstore.EngineConfig{
			MaxMachines:          3,
			PartitionsPerMachine: 2,
			Buckets:              120,
			ServiceTime:          0,
			QueueCapacity:        4096,
			InitialMachines:      1,
		},
		Register: pstore.RegisterB2W,
		Load: func(eng *pstore.Engine) error {
			return pstore.LoadB2W(eng, spec)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	rec, err := pstore.NewRecorder(time.Now(), 50*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	n.Engine.SetRecorder(rec)
	clu, err := pstore.NewCluster(pstore.ClusterConfig{
		Squall:   pstore.DefaultSquallConfig(),
		Recorder: rec,
	}, n)
	if err != nil {
		t.Fatal(err)
	}
	events, unsubscribe := clu.Subscribe(64)
	defer unsubscribe()
	if err := clu.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer clu.Stop()

	if rows := n.Engine.TotalRows(); rows != 530 {
		t.Fatalf("bootstrap loaded %d rows, want 530", rows)
	}
	if err := clu.Reconfigure(3, 0); err != nil {
		t.Fatal(err)
	}
	if n.Engine.ActiveMachines() != 3 {
		t.Fatalf("ActiveMachines = %d, want 3", n.Engine.ActiveMachines())
	}
	if st := clu.Stats(); st.Moves != 1 {
		t.Fatalf("stats %+v, want 1 move", st)
	}
	start := <-events
	if mv, ok := start.(pstore.MoveStarted); !ok || mv.From != 1 || mv.To != 3 {
		t.Fatalf("first event %v, want MoveStarted 1->3", start)
	}
	finish := <-events
	if mv, ok := finish.(pstore.MoveFinished); !ok || mv.Seq != 1 {
		t.Fatalf("second event %v, want successful MoveFinished", finish)
	}
	if rec.MachineSeries() == nil {
		t.Fatal("recorder has no machine timeline")
	}
	clu.Stop()
	if _, open := <-events; open {
		t.Error("event stream not closed by Stop")
	}
}

// TestFacadeControllers exercises the controller types through the facade.
func TestFacadeControllers(t *testing.T) {
	model := pstore.MigrationModel{Q: 100, QMax: 130, D: 4, P: 2}
	trace := make([]float64, 60)
	for i := range trace {
		trace[i] = 150
	}
	oracle := pstore.NewOnlinePredictor(pstore.NewOracle(trace), 0, 0)
	if err := oracle.ObserveAll(nil); err != nil {
		t.Fatal(err)
	}
	ctrl := &pstore.PredictiveController{Model: model, Predictor: oracle, Horizon: 10}
	d, err := ctrl.Tick(2, false, 150)
	if err != nil {
		t.Fatal(err)
	}
	if d != nil && d.Target < 1 {
		t.Errorf("bad decision %+v", d)
	}
	var static pstore.StaticController
	if d, err := static.Tick(1, false, 1e9); err != nil || d != nil {
		t.Errorf("static controller decided: %v, %v", d, err)
	}

	// And the simulator.
	s := &pstore.Simulator{Model: model}
	res, err := s.Run(trace, static, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost != 120 {
		t.Errorf("static sim cost %v, want 120", res.Cost)
	}
}
