package main

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// mdSection returns the lines of the first fenced block in the markdown
// section whose title starts with title, and the section's text lines.
func mdSection(md, title string) (block, text []string, err error) {
	for _, sec := range strings.Split(md, "\n## ")[1:] {
		if !strings.HasPrefix(sec, title) {
			continue
		}
		in := false
		for _, l := range strings.Split(sec, "\n")[1:] {
			switch {
			case strings.HasPrefix(l, "```"):
				in = !in
			case in:
				block = append(block, l)
			default:
				text = append(text, l)
			}
		}
		return block, text, nil
	}
	return nil, nil, fmt.Errorf("report has no section %q", title)
}

// checkSeriesTable checks a day-by-day table (a header, then rows of a
// day number and one value per series, at %.3f) against the series:
// row day d holds each series' value for day d, the last row the final
// value.
func checkSeriesTable(rows []string, series ...[]float64) error {
	if len(rows) < 3 {
		return fmt.Errorf("series table has %d lines", len(rows))
	}
	for _, row := range rows[1:] {
		f := strings.Fields(row)
		if len(f) != len(series)+1 {
			return fmt.Errorf("series row %q: want %d columns", row, len(series)+1)
		}
		day, err := strconv.Atoi(f[0])
		if err != nil || day < 1 {
			return fmt.Errorf("series row %q: bad day", row)
		}
		for i, s := range series {
			if day > len(s) {
				return fmt.Errorf("series row %q: day %d past the series' %d days", row, day, len(s))
			}
			if want := fmt.Sprintf("%.3f", s[day-1]); f[i+1] != want {
				return fmt.Errorf("series row %q: column %d is %s, want %s", row, i+1, f[i+1], want)
			}
		}
	}
	return nil
}

// metricsSnapshot parses an obs metrics snapshot ("kind name value").
func metricsSnapshot(text string) map[string]string {
	m := map[string]string{}
	for _, l := range strings.Split(text, "\n") {
		f := strings.Fields(l)
		if len(f) == 3 && !strings.HasPrefix(l, "#") {
			m[f[1]] = f[2]
		}
	}
	return m
}

// expect compares a snapshot value with the expected one.
func expect(m map[string]string, name string, want any) error {
	got, ok := m[name]
	if !ok {
		return fmt.Errorf("snapshot has no %s", name)
	}
	var w string
	switch v := want.(type) {
	case float64:
		g, err := strconv.ParseFloat(got, 64)
		if err != nil || g != v {
			return fmt.Errorf("%s is %s, want %v", name, got, v)
		}
		return nil
	default:
		w = fmt.Sprint(v)
	}
	if got != w {
		return fmt.Errorf("%s is %s, want %s", name, got, w)
	}
	return nil
}

// errs collects the failed checks of one operation.
type errs []error

func (es *errs) add(err error) {
	if err != nil {
		*es = append(*es, err)
	}
}

func (es errs) err() error { return errors.Join(es...) }
