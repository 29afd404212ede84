// Package cliconf wires a flag.FlagSet to NVBIT_* environment fallbacks
// and is the single source of truth for a command's flag documentation.
//
// Every flag declared through a Set resolves in fixed precedence: an
// explicit command-line flag wins, then the flag's derived environment
// variable (NVBIT_ plus the flag name uppercased, dashes to underscores:
// -jit-cache → NVBIT_JIT_CACHE), then the built-in default. Resolve applies
// the environment tier after parsing; TableMarkdown renders the whole flag
// surface as the markdown table the docs embed, so flags, env names,
// defaults and docs cannot drift apart.
package cliconf

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
)

// Set wraps a FlagSet, recording every declared flag for env resolution
// and doc generation.
type Set struct {
	fs       *flag.FlagSet
	items    []*item
	explicit map[string]bool // flags the user set, filled by Resolve
}

type item struct {
	name, env, def, usage string
}

// New wraps fs. Flags must be declared through the returned Set to take
// part in env fallback and the generated table.
func New(fs *flag.FlagSet) *Set {
	return &Set{fs: fs, explicit: map[string]bool{}}
}

// envName derives the environment variable backing a flag.
func envName(flagName string) string {
	return "NVBIT_" + strings.ToUpper(strings.ReplaceAll(flagName, "-", "_"))
}

func (s *Set) add(name, def, usage string) string {
	env := envName(name)
	s.items = append(s.items, &item{name: name, env: env, def: def, usage: usage})
	return usage + " (env " + env + ")"
}

// String declares a string flag with env fallback.
func (s *Set) String(name, def, usage string) *string {
	return s.fs.String(name, def, s.add(name, def, usage))
}

// Bool declares a bool flag with env fallback.
func (s *Set) Bool(name string, def bool, usage string) *bool {
	return s.fs.Bool(name, def, s.add(name, fmt.Sprint(def), usage))
}

// Int declares an int flag with env fallback.
func (s *Set) Int(name string, def int, usage string) *int {
	return s.fs.Int(name, def, s.add(name, fmt.Sprint(def), usage))
}

// Uint declares a uint flag with env fallback.
func (s *Set) Uint(name string, def uint, usage string) *uint {
	return s.fs.Uint(name, def, s.add(name, fmt.Sprint(def), usage))
}

// Uint64 declares a uint64 flag with env fallback.
func (s *Set) Uint64(name string, def uint64, usage string) *uint64 {
	return s.fs.Uint64(name, def, s.add(name, fmt.Sprint(def), usage))
}

// Resolve applies the environment tier: for every declared flag not set on
// the command line whose environment variable is present and non-empty,
// the variable's value is parsed as the flag's value. Call it once, after
// FlagSet.Parse. A malformed value fails with an error naming the
// variable.
func (s *Set) Resolve() error {
	s.fs.Visit(func(f *flag.Flag) { s.explicit[f.Name] = true })
	for _, it := range s.items {
		if s.explicit[it.name] {
			continue
		}
		v, ok := os.LookupEnv(it.env)
		if !ok || v == "" {
			continue
		}
		if err := s.fs.Set(it.name, v); err != nil {
			return fmt.Errorf("invalid %s=%q: %w", it.env, v, err)
		}
		s.explicit[it.name] = true
	}
	return nil
}

// Explicit reports whether the user supplied the flag, on the command line
// or through its environment variable. Call it after Resolve.
func (s *Set) Explicit(name string) bool { return s.explicit[name] }

// Column is an extra column of the generated table: Cell gives its entry
// for a flag, by name.
type Column struct {
	Head string
	Cell func(flag string) string
}

// TableMarkdown renders the declared flags as a markdown table, sorted by
// flag name, with cols after the description — the generated section the
// command's documentation embeds.
func (s *Set) TableMarkdown(cols ...Column) string {
	items := append([]*item(nil), s.items...)
	sort.Slice(items, func(i, j int) bool { return items[i].name < items[j].name })
	var b strings.Builder
	head, rule := "| Flag | Environment | Default | Description |", "|------|-------------|---------|-------------|"
	for _, c := range cols {
		head += " " + c.Head + " |"
		rule += strings.Repeat("-", len(c.Head)+2) + "|"
	}
	b.WriteString(head + "\n" + rule + "\n")
	for _, it := range items {
		def := it.def
		if def != "" {
			def = "`" + def + "`"
		}
		usage := strings.ReplaceAll(it.usage, "|", "\\|")
		fmt.Fprintf(&b, "| `-%s` | `%s` | %s | %s |", it.name, it.env, def, usage)
		for _, c := range cols {
			b.WriteString(" " + c.Cell(it.name) + " |")
		}
		b.WriteString("\n")
	}
	return b.String()
}
