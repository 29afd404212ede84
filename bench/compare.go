package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// exactCounts are the per-layer metrics that repeat exactly on one commit:
// a difference between two files is a change of behaviour, flagged CHANGED.
var exactCounts = map[string]bool{
	"gpu.sim_cycles_native": true, "gpu.sim_cycles_instr": true,
	"gpu.warp_instrs_native": true, "gpu.warp_instrs_instr": true,
	"core.tramp_words_per_site": true, "core.saved_regs_per_site": true, "core.inlined_site_pct": true,
	"jitcache.bytes_per_kinstr": true, "channel.bytes_per_record": true,
	"campaign.masked": true, "campaign.sdc": true, "campaign.due": true,
}

func readRunFile(path string) (*runFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f runFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// worseBy returns how much worse new is than old as a share of old, given
// which direction is better; negative is an improvement.
func worseBy(old, new float64, better string) float64 {
	if old == 0 {
		return 0
	}
	d := (new - old) / old
	if better == higher {
		d = -d
	}
	return d
}

// compareFiles prints one row per workload and metric of two -out files and
// reports whether any end-to-end metric got worse by more than its bound, or
// any workload of the new file failed its checks. Per-layer rows carry no
// bound: they say where a change sits, not whether it is allowed.
func compareFiles(w io.Writer, oldPath, newPath string) (regressed bool, err error) {
	oldF, err := readRunFile(oldPath)
	if err != nil {
		return false, err
	}
	newF, err := readRunFile(newPath)
	if err != nil {
		return false, err
	}
	names := make([]string, 0, len(newF.Workloads))
	for name := range newF.Workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-13s %-38s %14s %14s %9s %7s  %s\n", "workload", "metric", "old", "new", "worse by", "bound", "")
	for _, name := range names {
		n, o := newF.Workloads[name], oldF.Workloads[name]
		if !n.Correct {
			fmt.Fprintf(w, "%-13s FAILED its checks: %d of %d operations\n", name, n.Failed, n.Attempted)
			regressed = true
		}
		if o == nil {
			fmt.Fprintf(w, "%-13s not in %s\n", name, oldPath)
			continue
		}
		for _, d := range endToEnd {
			worse := worseBy(o.EndToEnd[d.Name].Value, n.EndToEnd[d.Name].Value, d.Better)
			verdict := "ok"
			if worse > d.Bound {
				verdict = "REGRESSED"
				regressed = true
			}
			fmt.Fprintf(w, "%-13s %-38s %14.4f %14.4f %+8.2f%% %6.1f%%  %s\n", name, d.Name,
				o.EndToEnd[d.Name].Value, n.EndToEnd[d.Name].Value, 100*worse, 100*d.Bound, verdict)
		}
		for _, d := range perLayer {
			ov, nv := o.PerLayer[d.Name].Value, n.PerLayer[d.Name].Value
			note := ""
			if exactCounts[d.Name] && ov != nv {
				note = "CHANGED"
			}
			fmt.Fprintf(w, "%-13s %-38s %14.4f %14.4f %+8.2f%% %7s  %s\n", name, d.Name, ov, nv, 100*worseBy(ov, nv, d.Better), "", note)
		}
	}
	return regressed, nil
}
