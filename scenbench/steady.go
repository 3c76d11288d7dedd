package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strings"
)

// scenarioBounds are the regression bounds of the scenario medians, as a
// share of the parent's median, used by the steady tool and the
// sensitivity check. BENCHMARK.json carries the bounds of the end-to-end
// metrics every workload reports; these classes exist on one workload
// each, so they live here.
var scenarioBounds = map[string]float64{
	"cold_ms":        0.25,
	"warm_newk_ms":   0.20,
	"warm_smallk_ms": 0.20,
	"hit_ms":         0.10,
	"batch_ms":       0.20,
	"scrape_ms":      0.10,
	"update_ms":      0.25,
	"post_update_ms": 0.25,
	"promote_ms":     0.25,
}

// steadyMain runs workloads repeatedly with consecutive seeds and prints,
// for every metric, the median, the quartiles and the quartile spread as
// a share of the metric's bound. --save writes the medians; --against
// compares this set's medians with a saved set and flags every metric
// that moved past its bound (the sensitivity check).
func steadyMain(args []string) int {
	fs := flag.NewFlagSet("scenbench steady", flag.ContinueOnError)
	runs := fs.Int("runs", 10, "runs per workload")
	names := fs.String("workloads", "oneshot,serve-warm,serve-churn", "comma-separated workloads")
	seconds := fs.String("seconds", "20", "timed phase of each run")
	seed0 := fs.Int("seed", 1, "seed of the first run; run i uses seed+i")
	inject := fs.String("inject", "", "passed to every run (sensitivity check)")
	save := fs.String("save", "", "write the medians to this file")
	against := fs.String("against", "", "compare medians with a file written by --save")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	bounds, better, err := loadBounds("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "scenbench steady:", err)
		return 1
	}
	var base map[string]map[string]float64
	if *against != "" {
		buf, err := os.ReadFile(*against)
		if err == nil {
			err = json.Unmarshal(buf, &base)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "scenbench steady:", err)
			return 1
		}
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "scenbench steady:", err)
		return 1
	}
	medians := map[string]map[string]float64{}
	moved := 0
	for _, w := range strings.Split(*names, ",") {
		values := map[string][]float64{}
		var order []string
		for i := 0; i < *runs; i++ {
			args := []string{"--workload", w, "--seed", fmt.Sprint(*seed0 + i), "--seconds", *seconds, "--trace", "0"}
			if *inject != "" {
				args = append(args, "--inject", *inject)
			}
			ms, err := runOnce(self, args)
			if err != nil {
				fmt.Fprintf(os.Stderr, "scenbench steady: %s seed %d: %v\n", w, *seed0+i, err)
				return 1
			}
			line := fmt.Sprintf("%s seed %d:", w, *seed0+i)
			for _, m := range ms {
				if _, ok := values[m.Name]; !ok {
					order = append(order, m.Name)
				}
				values[m.Name] = append(values[m.Name], m.Value)
				if _, gated := bounds[m.Name]; gated || scenarioBounds[m.Name] > 0 {
					line += fmt.Sprintf(" %s=%.4g", m.Name, m.Value)
				}
			}
			fmt.Println(line)
		}
		medians[w] = map[string]float64{}
		fmt.Printf("\n%s: %d runs\n%-34s %12s %12s %12s %8s %7s %12s\n", w, *runs,
			"metric", "median", "q1", "q3", "spread", "bound", "spread/bnd")
		for _, name := range order {
			xs := values[name]
			q := quartiles(xs)
			med := median(xs)
			medians[w][name] = med
			spread := ratio(q[2]-q[0], med)
			b, ok := bounds[name]
			if !ok {
				b, ok = scenarioBounds[name]
			}
			line := fmt.Sprintf("%-34s %12.4f %12.4f %12.4f %8.4f", name, med, q[0], q[2], spread)
			if ok {
				line += fmt.Sprintf(" %7.2f %12.2f", b, spread/b)
			}
			if old, has := base[w][name]; has && ok {
				shift := (med - old) / old
				if better[name] == "higher" {
					shift = -shift
				}
				verdict := "within"
				if shift > b {
					verdict = "MOVED"
					moved++
				}
				line += fmt.Sprintf("  worse by %+.3f: %s", shift, verdict)
			}
			fmt.Println(line)
		}
	}
	if *against != "" {
		fmt.Printf("\n%d metric(s) moved past their bound\n", moved)
	}
	if *save != "" {
		buf, _ := json.MarshalIndent(medians, "", "  ")
		if err := os.WriteFile(*save, append(buf, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "scenbench steady:", err)
			return 1
		}
	}
	return 0
}

// runOnce runs one benchmark invocation and returns its detail metrics.
func runOnce(self string, args []string) ([]metric, error) {
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, err
	}
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "detail "); ok {
			var ms []metric
			if err := json.Unmarshal([]byte(rest), &ms); err != nil {
				return nil, err
			}
			return ms, nil
		}
	}
	return nil, fmt.Errorf("no detail line in output")
}

// loadBounds reads the end-to-end bounds and directions of BENCHMARK.json.
func loadBounds(path string) (map[string]float64, map[string]string, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	var spec struct {
		EndToEnd []struct {
			Name   string  `json:"name"`
			Better string  `json:"better"`
			Bound  float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(buf, &spec); err != nil {
		return nil, nil, fmt.Errorf("%s: %w", path, err)
	}
	bounds, better := map[string]float64{}, map[string]string{}
	for _, m := range spec.EndToEnd {
		bounds[m.Name], better[m.Name] = m.Bound, m.Better
	}
	return bounds, better, nil
}

// quartiles matches Python's statistics.quantiles(xs, n=4) (the
// "exclusive" method), which is how the spreads are judged.
func quartiles(xs []float64) [3]float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s)
	var q [3]float64
	if m < 2 {
		for i := range q {
			q[i] = s[0]
		}
		return q
	}
	for i := 1; i <= 3; i++ {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		} else if j > m-1 {
			j = m - 1
		}
		delta := i*(m+1) - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q
}
