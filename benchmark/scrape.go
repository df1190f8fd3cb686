package main

import (
	"bufio"
	"sort"
	"strconv"
	"strings"
)

// series is one Prometheus text exposition parsed into series -> value,
// the series written as in the exposition (name plus label set).
type series map[string]float64

func parseProm(text string) series {
	out := make(series)
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out
}

// family reports whether key is a series of the named family.
func inFamily(key, name string) bool {
	return key == name || strings.HasPrefix(key, name+"{")
}

// sum adds every series of a family whose label set contains all of match
// (each written `label="value"`).
func (s series) sum(name string, match ...string) float64 {
	var t float64
	for k, v := range s {
		if !inFamily(k, name) {
			continue
		}
		ok := true
		for _, m := range match {
			if !strings.Contains(k, m) {
				ok = false
				break
			}
		}
		if ok {
			t += v
		}
	}
	return t
}

// delta returns after-before for every series in after.
func delta(before, after series) series {
	out := make(series, len(after))
	for k, v := range after {
		out[k] = v - before[k]
	}
	return out
}

// histQuantile estimates quantile q (0..1) of a histogram family from its
// cumulative _bucket series (summed across label sets), interpolating
// inside the bucket the quantile falls in. It returns 0 without samples.
func (s series) histQuantile(name string, q float64) float64 {
	byLe := make(map[float64]float64)
	for k, v := range s {
		if !inFamily(k, name+"_bucket") {
			continue
		}
		i := strings.Index(k, `le="`)
		if i < 0 {
			continue
		}
		rest := k[i+4:]
		j := strings.IndexByte(rest, '"')
		if j < 0 {
			continue
		}
		le, err := strconv.ParseFloat(rest[:j], 64)
		if err != nil { // "+Inf" parses; anything else is skipped
			continue
		}
		byLe[le] += v
	}
	if len(byLe) == 0 {
		return 0
	}
	les := make([]float64, 0, len(byLe))
	for le := range byLe {
		les = append(les, le)
	}
	sort.Float64s(les)
	total := byLe[les[len(les)-1]]
	if total <= 0 {
		return 0
	}
	want := q * total
	prevLe, prevCum := 0.0, 0.0
	for _, le := range les {
		cum := byLe[le]
		if cum >= want {
			if le > 1e300 { // +Inf bucket: no upper edge to interpolate to
				return prevLe
			}
			if cum == prevCum {
				return le
			}
			return prevLe + (le-prevLe)*(want-prevCum)/(cum-prevCum)
		}
		prevLe, prevCum = le, cum
	}
	return prevLe
}
