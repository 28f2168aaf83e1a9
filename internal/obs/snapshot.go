package obs

import "sort"

// Merge folds o into s: counters and histogram totals add, gauges take
// o's level (last writer wins — gauges are instantaneous levels, not
// totals). Used to aggregate per-worker registries into one sweep-wide
// snapshot.
func (s *Snapshot) Merge(o Snapshot) {
	if s.Counters == nil && len(o.Counters) > 0 {
		s.Counters = map[string]uint64{}
	}
	for name, v := range o.Counters {
		s.Counters[name] += v
	}
	if len(o.Gauges) > 0 {
		if s.Gauges == nil {
			s.Gauges = map[string]uint64{}
		}
		for name, v := range o.Gauges {
			s.Gauges[name] = v
		}
	}
	if len(o.Histograms) > 0 {
		if s.Histograms == nil {
			s.Histograms = map[string]HistogramSnapshot{}
		}
		for name, oh := range o.Histograms {
			s.Histograms[name] = mergeHist(s.Histograms[name], oh)
		}
	}
}

func mergeHist(a, b HistogramSnapshot) HistogramSnapshot {
	out := HistogramSnapshot{Count: a.Count + b.Count, Sum: a.Sum + b.Sum}
	if out.Count > 0 {
		out.Mean = float64(out.Sum) / float64(out.Count)
	}
	byLo := map[uint64]Bucket{}
	for _, bk := range a.Buckets {
		byLo[bk.Lo] = bk
	}
	for _, bk := range b.Buckets {
		if have, ok := byLo[bk.Lo]; ok {
			have.Count += bk.Count
			byLo[bk.Lo] = have
		} else {
			byLo[bk.Lo] = bk
		}
	}
	for _, bk := range byLo {
		out.Buckets = append(out.Buckets, bk)
	}
	sort.Slice(out.Buckets, func(i, j int) bool { return out.Buckets[i].Lo < out.Buckets[j].Lo })
	return out
}
