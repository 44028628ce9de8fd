package main

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"mpmc/internal/cli"
	"mpmc/internal/core"
	"mpmc/internal/fleet"
	"mpmc/internal/machine"
	"mpmc/internal/metrics"
	"mpmc/internal/server"
	"mpmc/internal/wal"
	"mpmc/internal/workload"
)

// stackCfg names the cmd/serve flags a workload sets; everything else takes
// serve's defaults, which is what the traced run must reproduce.
type stackCfg struct {
	machine   string
	fleet     string // comma-separated presets
	shards    int
	synthetic bool
	stateDir  string    // "" = no WAL
	rec       *recorder // nil = untraced
	// intercept installs the recorder's counting Intercept hook. It is kept
	// out of the timed traced phase: any Intercept turns off the fleet's
	// all-hit memo fast path, so counting runs in a phase of its own.
	intercept bool
}

// stack is the serve process's object graph, assembled in-process and
// served on a loopback listener.
type stack struct {
	cfg      stackCfg
	models   map[string]*core.PowerModel
	profile  profileFunc
	fl       fleetImpl
	log      *wal.Log
	reg      *metrics.Registry
	url      string
	hs       *http.Server
	served   chan error
	stopped  bool
	logFile  *os.File
	trainDur time.Duration
}

// fleetImpl is what buildFleet returns: the served surface plus recovery.
type fleetImpl interface {
	server.FleetBackend
	Recover(ctx context.Context, st *wal.State) error
}

// buildStack mirrors cmd/serve's main: power models (trained or
// synthetic), the fleet with its journal, the server, and the listener.
func buildStack(ctx context.Context, cfg stackCfg, logPath string) (_ *stack, err error) {
	s := &stack{cfg: cfg, models: map[string]*core.PowerModel{}, reg: metrics.NewRegistry()}
	m, err := cli.MachineByName(cfg.machine)
	if err != nil {
		return nil, err
	}
	defer func() {
		// On a failed build, close what was opened; the error says why.
		if err != nil && s.log != nil {
			_ = s.log.Close()
		}
		if err != nil && s.logFile != nil {
			_ = s.logFile.Close()
		}
	}()
	if cfg.synthetic {
		s.profile = func(_ context.Context, m *machine.Machine, spec *workload.Spec, _ core.ProfileOptions) (*core.FeatureVector, error) {
			return core.TruthFeature(spec, m), nil
		}
	} else {
		s.profile = core.Profile
	}
	if cfg.rec != nil {
		s.profile = cfg.rec.profile(s.profile)
	}
	pm, err := s.model(ctx, m)
	if err != nil {
		return nil, err
	}
	var journal func([]wal.Event)
	if cfg.stateDir != "" {
		var st *wal.State
		s.log, st, err = wal.Open(cfg.stateDir)
		if err != nil {
			return nil, err
		}
		if len(st.Residents) != 0 {
			return nil, fmt.Errorf("state directory %s is not fresh", cfg.stateDir)
		}
		if cfg.rec != nil {
			journal = cfg.rec.journal(s.log)
		} else {
			journal = plainJournal(s.log)
		}
	}
	if s.fl, err = s.buildFleet(ctx, journal); err != nil {
		return nil, err
	}
	if s.logFile, err = os.Create(logPath); err != nil {
		return nil, err
	}
	policy, err := cli.PolicyByName("power-aware")
	if err != nil {
		return nil, err
	}
	var backend server.FleetBackend = s.fl
	if cfg.rec != nil {
		backend = tracedFleet{FleetBackend: s.fl, rec: cfg.rec}
	}
	srv, err := server.New(server.Config{
		Machine:  m,
		Power:    pm,
		Profile:  s.profile,
		Seed:     profileSeed,
		Quick:    quick,
		Policy:   policy,
		Logger:   slog.New(slog.NewJSONHandler(s.logFile, nil)),
		Registry: s.reg,
		Fleet:    backend,
	})
	if err != nil {
		return nil, err
	}
	h := srv.Handler()
	if cfg.rec != nil {
		h = cfg.rec.handler(h)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s.url = "http://" + ln.Addr().String()
	s.hs = &http.Server{Handler: h}
	s.served = make(chan error, 1)
	go func() { s.served <- s.hs.Serve(ln) }()
	return s, nil
}

// plainJournal is cmd/serve's journal: append, and never fail the commit.
func plainJournal(l *wal.Log) func([]wal.Event) {
	return func(events []wal.Event) {
		if err := l.Append(events); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: wal append:", err)
		}
	}
}

// model returns m's power model: the synthetic one, or trained once per
// machine kind with serve's quick options.
func (s *stack) model(ctx context.Context, m *machine.Machine) (*core.PowerModel, error) {
	if pm, ok := s.models[m.Name]; ok {
		return pm, nil
	}
	var pm *core.PowerModel
	var err error
	if s.cfg.synthetic {
		pm, err = core.SyntheticPowerModel()
	} else {
		start := time.Now()
		pm, err = core.TrainPowerModel(ctx, m, workload.ModelSet(), cli.TrainOptions(profileSeed, quick, 0))
		s.trainDur += time.Since(start)
	}
	if err != nil {
		return nil, err
	}
	s.models[m.Name] = pm
	return pm, nil
}

// buildFleet mirrors cmd/serve's buildFleet at serve's flag defaults.
func (s *stack) buildFleet(ctx context.Context, journal func([]wal.Event)) (fleetImpl, error) {
	policy, err := fleet.ParsePolicy("least-degradation")
	if err != nil {
		return nil, err
	}
	var nodes []fleet.NodeConfig
	for _, preset := range strings.Split(s.cfg.fleet, ",") {
		m, err := cli.MachineByName(preset)
		if err != nil {
			return nil, err
		}
		pm, err := s.model(ctx, m)
		if err != nil {
			return nil, err
		}
		nodes = append(nodes, fleet.NodeConfig{Machine: m, Power: pm, MaxPerCore: 2})
	}
	cfg := fleet.Config{
		Nodes:    nodes,
		Policy:   policy,
		QueueCap: 16,
		Seed:     profileSeed,
		Quick:    quick,
		Registry: s.reg,
		Profile:  s.profile,
		Journal:  journal,
	}
	if s.cfg.intercept {
		cfg.Intercept = s.cfg.rec.intercept
	}
	if s.cfg.shards > 1 {
		return fleet.NewSharded(cfg, s.cfg.shards)
	}
	return fleet.New(cfg)
}

// stop shuts the listener down and closes the request log; a second call
// does nothing. The WAL is left open, as a killed process would leave it.
func (s *stack) stop() error {
	if s.stopped {
		return nil
	}
	s.stopped = true
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	if serr := <-s.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if cerr := s.logFile.Close(); err == nil {
		err = cerr
	}
	return err
}

// close releases the stack on any path: the success paths call stop
// first and check its error.
func (s *stack) close() {
	_ = s.stop() // an error here is reported by the success path's stop
	if s.log != nil {
		_ = s.log.Close() // the directory is discarded with the run
	}
}

// logPathIn names a phase's request log in dir.
func logPathIn(dir, phase string) string { return filepath.Join(dir, phase+".log") }
