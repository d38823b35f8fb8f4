package main

import (
	"fmt"
	"math/rand"
	"time"

	"hdmaps/internal/apps/localization"
	"hdmaps/internal/core"
	"hdmaps/internal/geo"
	"hdmaps/internal/sensors"
	"hdmaps/internal/worldgen"
)

const (
	particles = 600 // RunMonocular's tight-init default
	// A run drives a fixed number of laps, one per lapSeconds of the
	// requested time and at least minLaps, so that its work does not
	// depend on the host's speed. A lap takes 2-4 s on a 2-vCPU host.
	minLaps    = 2
	lapSeconds = 3
	// maxLapErr is TestMonocularTracking's bound on the mean tracking
	// error after convergence.
	maxLapErr = 1.0
	frameStep = 6.0 // metres between keyframes, as the tracking test drives
	maxLanes  = 12  // lane observations Monocular.Step keeps per frame
)

// The localize workload is TestMonocularTracking's scenario, fixed
// whatever the run's seed: a 600 m three-lane corridor with a sign every
// 80 m, driven along the middle lane at 14 m/s with a keyframe every
// 6 m, from the test's world and noise seeds. Its work and its error
// are the same on every run.
var highway = worldgen.HighwayParams{LengthM: 600, Lanes: 3, SignSpacing: 80, CurveAmp: 15, CurvePeriod: 900}

const (
	highwaySeed = 411
	noiseSeed   = 412
	speed       = 14.0
)

type localizeEnv struct {
	traced bool
	hw     *worldgen.Highway
	traj   []geo.Pose2
	deltas []geo.Pose2

	laps      int
	lapErr    float64       // mean error after convergence; every lap is the same
	frameTime time.Duration // detect plus step, summed over every frame driven
	evals     int64
	stepNs    int64
	detectLat []time.Duration
}

func setupLocalize(_ int64, _ string, rec *recorder) (instance, setupCost, error) {
	var cost setupCost
	t0 := time.Now()
	hw, err := worldgen.GenerateHighway(highway, rand.New(rand.NewSource(highwaySeed)))
	if err != nil {
		return nil, cost, err
	}
	route, err := hw.RoutePolyline(hw.LaneChains[1])
	if err != nil {
		return nil, cost, err
	}
	e := &localizeEnv{traced: rec != nil, hw: hw}
	// Sampled as RunMonocular samples its route.
	dt := frameStep / speed
	for s := 0.0; s <= route.Length(); s += speed * dt {
		e.traj = append(e.traj, route.PoseAt(s))
	}
	for i := 1; i < len(e.traj); i++ {
		e.deltas = append(e.deltas, e.traj[i-1].Between(e.traj[i]))
	}
	cost.worldgen = time.Since(t0)
	return e, cost, nil
}

func (e *localizeEnv) close() {}

func (e *localizeEnv) sizes() string {
	return fmt.Sprintf("%.0f m route, %d frames a lap, %d particles", highway.LengthM, len(e.traj), particles)
}

// warm does nothing: a lap takes seconds, and the filter holds no state
// across laps that a warm-up could prepare.
func (e *localizeEnv) warm() {}

func (e *localizeEnv) begin() {
	e.laps, e.frameTime, e.evals, e.stepNs, e.detectLat = 0, 0, 0, 0, nil
}

// run drives d's worth of laps of the route. Every lap is the same
// work: a fresh filter from a tight fix, with sensor noise drawn from
// the same seed, so the filter takes the same path each lap.
func (e *localizeEnv) run(p *phase, d time.Duration) {
	laps := max(minLaps, int(d.Seconds())/lapSeconds)
	for e.laps < laps {
		e.lap(p)
		e.laps++
	}
}

// summary reports every step driven, and frames per second of frame
// time, detection included. A lap is too short for the phase's windows:
// a window would cover only the expensive frames before the filter
// converges, or only the cheap ones after.
func (e *localizeEnv) summary(p *phase) (lat []time.Duration, rate float64) {
	return p.lat, ratio(float64(len(p.lat)), e.frameTime.Seconds())
}

func (e *localizeEnv) lap(p *phase) {
	rng := rand.New(rand.NewSource(noiseSeed))
	loc := localization.NewMonocular(e.hw.Map, particles, rng)
	laneDet := sensors.NewLaneDetector(sensors.LaneDetectorConfig{Ahead: 30, LateralNoise: 0.1, SampleStep: 3}, rng)
	objDet := sensors.NewObjectDetector(sensors.ObjectDetectorConfig{PosNoise: 0.3, FOV: 2.4}, rng)
	odo := sensors.NewOdometry(0.01, 0.001, rng)
	loc.Init(e.traj[0], 5, 0.3)
	converged, keyFrames := -1, 0
	var errs []float64
	steps := int64(0)
	for i, pose := range e.traj {
		var delta geo.Pose2
		if i > 0 {
			delta = odo.Measure(e.deltas[i-1])
		}
		t0 := time.Now()
		lanes := laneDet.Detect(e.hw.World.Map, pose)
		dets := objDet.Detect(e.hw.World.Map, pose, core.ClassSign, core.ClassPole, core.ClassTrafficLight)
		if e.traced {
			e.detectLat = append(e.detectLat, time.Since(t0))
		}
		t1 := time.Now()
		est, err := loc.Step(delta, lanes, dets)
		dt := time.Since(t1)
		e.frameTime += time.Since(t0)
		p.attempted++
		steps++
		e.stepNs += int64(dt)
		e.evals += int64(particles * (usedLanes(len(lanes)) + len(dets)))
		if err != nil {
			p.sample(dt, 0)
			p.fail(fmt.Sprintf("lap %d step %d: %v", e.laps, i, err))
			return
		}
		p.sample(dt, 1)
		if len(dets) > 0 {
			keyFrames++
		}
		// RunMonocular's convergence rule and error window.
		if converged < 0 && loc.Spread() < 3 && i >= 4 && keyFrames >= 5 {
			converged = i
		}
		if converged >= 0 && i > converged+2 {
			errs = append(errs, est.P.Dist(pose.P))
		}
	}
	mean := 0.0
	for _, v := range errs {
		mean += v
	}
	if len(errs) > 0 {
		mean /= float64(len(errs))
	}
	e.lapErr = mean
	switch {
	case converged < 0:
		p.failed += steps
		p.errs = append(p.errs, fmt.Sprintf("lap %d never converged", e.laps))
	case mean > maxLapErr:
		p.failed += steps
		p.errs = append(p.errs, fmt.Sprintf("lap %d mean error %.3f m > %.1f m", e.laps, mean, maxLapErr))
	}
}

// usedLanes is how many lane observations Monocular.Step weighs: above
// maxLanes it keeps every len/maxLanes-th one.
func usedLanes(n int) int {
	if n <= maxLanes {
		return n
	}
	step := n / maxLanes
	return (n + step - 1) / step
}

func (e *localizeEnv) layers(p *phase, spans []span) map[string]float64 {
	out := map[string]float64{
		"loc.err_m":          e.lapErr,
		"loc.evals_per_step": ratio(float64(e.evals), float64(len(p.lat))),
		"loc.ns_per_eval":    ratio(float64(e.stepNs), float64(e.evals)),
	}
	if e.traced {
		var det acc
		for _, d := range e.detectLat {
			det.add(int64(d))
		}
		out["sensors.detect_ms"] = det.meanMs()
	}
	return out
}
