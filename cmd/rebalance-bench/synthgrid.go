package main

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"rebalance/internal/workload/synth"
)

// maxSynthGrid bounds the -synth cross product so a typo'd axis list
// cannot expand into thousands of workloads before the shard limit even
// sees the spec.
const maxSynthGrid = 64

// synthAxes maps -synth grid keys to parameter-set mutations. Each axis
// takes one value from its list per grid point; the grid is the cross
// product of all axes.
//
//	bias=0.6,0.8,0.95   biased-branch fraction (correlated/noisy fill the
//	                    remainder in the default 2:1 ratio)
//	taken=0.92,0.99     dominant-direction probability of biased sites
//	depth=1,3           loop-nest depth
//	blocklen=4,16       mean basic-block length (instructions)
//	funcs=8,32          worker-function count
//	fanout=2,8          indirect-dispatch fan-out
//	calls=1,4           direct-call fan-out (leaf functions)
//	hot=0.25,0.75       hot-function fraction
//	dispatch=periodic,weighted
//	seed=1,2,3          generator structure seed
//	trips=8:12,40       innermost trip-count phases, ':'-separated
var synthAxes = map[string]func(*synth.Params, string) error{
	"bias": func(p *synth.Params, v string) error {
		f, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return err
		}
		// Sweeping the biased fraction re-splits the remainder between
		// the correlated and noisy populations at the default 2:1 ratio,
		// so one axis value stays one scenario knob.
		p.BiasedFrac = f
		p.CorrelatedFrac = (1 - f) * 2 / 3
		p.NoisyFrac = (1 - f) / 3
		return nil
	},
	"taken": func(p *synth.Params, v string) error {
		f, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return err
		}
		p.Bias = f
		return nil
	},
	"depth": func(p *synth.Params, v string) error {
		n, err := strconv.Atoi(v)
		p.LoopDepth = n
		return err
	},
	"blocklen": func(p *synth.Params, v string) error {
		n, err := strconv.Atoi(v)
		p.BlockLen = n
		return err
	},
	"funcs": func(p *synth.Params, v string) error {
		n, err := strconv.Atoi(v)
		p.Funcs = n
		return err
	},
	"fanout": func(p *synth.Params, v string) error {
		n, err := strconv.Atoi(v)
		p.IndirectFanout = n
		return err
	},
	"calls": func(p *synth.Params, v string) error {
		n, err := strconv.Atoi(v)
		p.CallFanout = n
		return err
	},
	"hot": func(p *synth.Params, v string) error {
		f, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return err
		}
		p.HotFrac = f
		return nil
	},
	"dispatch": func(p *synth.Params, v string) error {
		p.Dispatch = v
		return nil
	},
	"seed": func(p *synth.Params, v string) error {
		n, err := strconv.ParseUint(v, 10, 64)
		p.Seed = n
		return err
	},
	"trips": func(p *synth.Params, v string) error {
		var trips []int
		for _, t := range strings.Split(v, ":") {
			n, err := strconv.Atoi(t)
			if err != nil {
				return err
			}
			trips = append(trips, n)
		}
		p.TripCounts = trips
		return nil
	},
}

// synthAxisKeys lists the grid keys for error messages, derived from the
// axis map so the advertised grammar cannot drift from the real one.
func synthAxisKeys() []string {
	keys := make([]string, 0, len(synthAxes))
	for k := range synthAxes {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// parseSynthGrid expands the -synth grid grammar into parameter sets.
// The grammar is ';'-separated axes of ','-separated values:
//
//	-synth "bias=0.6,0.8,0.95"            -> 3 scenarios
//	-synth "bias=0.6,0.9;hot=0.25,0.75"   -> 4 scenarios (cross product)
//
// Every grid point gets a deterministic name built from its axis values
// ("synth-bias0.6-hot0.25"), and every parameter set is validated through
// synth/v1 canonicalization before the sweep starts.
func parseSynthGrid(arg string) ([]synth.Params, error) {
	grid := []synth.Params{{}}
	var nameParts [][]string // parallel to grid: name fragments per point
	nameParts = append(nameParts, nil)

	seenAxes := map[string]bool{}
	for _, axisSpec := range strings.Split(arg, ";") {
		key, vals, ok := strings.Cut(strings.TrimSpace(axisSpec), "=")
		key = strings.TrimSpace(key)
		apply := synthAxes[key]
		if !ok || apply == nil {
			return nil, fmt.Errorf("-synth axis %q: want key=v1,v2,... with key one of %v", axisSpec, synthAxisKeys())
		}
		// A repeated axis would silently overwrite earlier values while
		// both spellings survive in the scenario names.
		if seenAxes[key] {
			return nil, fmt.Errorf("-synth axis %q given twice", key)
		}
		seenAxes[key] = true
		values := strings.Split(vals, ",")
		next := make([]synth.Params, 0, len(grid)*len(values))
		nextNames := make([][]string, 0, cap(next))
		for i, base := range grid {
			for _, v := range values {
				v = strings.TrimSpace(v)
				if v == "" {
					return nil, fmt.Errorf("-synth axis %q has an empty value", axisSpec)
				}
				p := base
				p.TripCounts = append([]int(nil), base.TripCounts...)
				if err := apply(&p, v); err != nil {
					return nil, fmt.Errorf("-synth %s=%s: %v", key, v, err)
				}
				next = append(next, p)
				nextNames = append(nextNames, append(append([]string(nil), nameParts[i]...), key+strings.ReplaceAll(v, ":", ".")))
			}
		}
		grid, nameParts = next, nextNames
		if len(grid) > maxSynthGrid {
			return nil, fmt.Errorf("-synth grid expands to %d scenarios, max %d", len(grid), maxSynthGrid)
		}
	}
	if len(nameParts[0]) == 0 {
		return nil, fmt.Errorf("-synth %q names no axes; want key=v1,v2[;key=...]", arg)
	}
	for i := range grid {
		grid[i].Name = "synth-" + strings.ToLower(strings.Join(nameParts[i], "-"))
		c, err := grid[i].Canonical()
		if err != nil {
			return nil, fmt.Errorf("-synth scenario %q: %v", grid[i].Name, err)
		}
		grid[i] = c
	}
	return grid, nil
}
