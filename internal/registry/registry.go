// Package registry is the typed experiment catalog behind every
// entry point that runs the paper's evaluation: cmd/experiments walks it
// to regenerate the tables and figures, and the campaign service
// (internal/campaign, cmd/voltbootd) serves jobs out of it.
//
// Each Experiment couples a stable name with a parameter schema and a
// context-aware run function. The schema is what makes campaign results
// cacheable: Resolve canonicalizes a parameter assignment (defaults
// applied, values normalized, unknown keys rejected) into a single
// canonical string, so two requests that mean the same sweep — whether
// they spell a default out or omit it, write "25.0" or "25" — map to the
// same content address.
package registry

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Kind is the type of a parameter value. Values always travel as strings
// (flag values, JSON object fields); the kind defines validation and the
// canonical rendering.
type Kind string

const (
	// Uint64Kind is a non-negative integer, decimal or 0x-hex.
	// Canonical form: decimal.
	Uint64Kind Kind = "uint64"
	// FloatListKind is a comma-separated list of finite floats; NaN and
	// ±Inf are rejected. Canonical form: strconv 'g' formatting, single
	// commas, no spaces.
	FloatListKind Kind = "float-list"
	// StringListKind is a comma-separated list of enum tokens.
	// Canonical form: tokens as declared, single commas, no spaces.
	// Order is preserved: a sweep over "pi4,pi3" is a different campaign
	// than "pi3,pi4".
	StringListKind Kind = "string-list"
	// HexKind is an even-length byte string in hexadecimal, with or
	// without an 0x prefix, any letter case. Canonical form: lowercase,
	// no prefix — "0x2B7E" and "2b7e" address the same cache entry.
	HexKind Kind = "hex"
)

// ParamSpec declares one overridable parameter of an experiment.
type ParamSpec struct {
	Name    string `json:"name"`
	Kind    Kind   `json:"kind"`
	Default string `json:"default"`
	// Enum restricts StringListKind tokens to this set.
	Enum []string `json:"enum,omitempty"`
	Doc  string   `json:"doc,omitempty"`
}

// Artifact is one binary output of an experiment run (a PBM bitmap, a
// JSON summary, a packed trace set) alongside the rendered text report.
type Artifact struct {
	Name string
	// Kind tags the payload format ("pbm", "json", "trace") so serving
	// layers can pick a Content-Type without sniffing bytes. Binary
	// kinds must survive every hop — store, fabric, HTTP — with their
	// bytes intact; nothing may treat Data as text.
	Kind string
	Data []byte
}

// ArtifactContentType maps an artifact kind to the HTTP Content-Type
// it must be served with. Unknown kinds fall back to text/plain, the
// historical behavior for kind-less artifacts.
func ArtifactContentType(kind string) string {
	switch kind {
	case "trace":
		return "application/octet-stream"
	case "json":
		return "application/json"
	case "pbm":
		return "image/x-portable-bitmap"
	default:
		return "text/plain; charset=utf-8"
	}
}

// Result is everything an experiment run produces.
type Result struct {
	// Text is the rendered report — what cmd/experiments prints.
	Text string
	// Artifacts are the binary side outputs, in a fixed order.
	Artifacts []Artifact
}

// Request is one resolved invocation of an experiment.
type Request struct {
	// Seed is the experiment seed (the universal parameter; every
	// experiment accepts it even when its output ignores it).
	Seed uint64
	// Params is the resolved parameter assignment: every declared
	// parameter present, values canonical. Build it with
	// Experiment.Resolve; Run may index it without checking.
	Params map[string]string
}

// Experiment is one runnable evaluation item.
type Experiment struct {
	// Name is the stable identifier ("table1", "ablationB-retention-sweep").
	Name string
	// Doc is a one-line description.
	Doc string
	// Slow marks the multi-minute items that -skip-slow and quick
	// campaigns leave out.
	Slow bool
	// ArtifactKinds lists the output kinds ("text", "pbm").
	ArtifactKinds []string
	// Params declares the overridable parameters beyond the seed.
	Params []ParamSpec
	// Run executes the experiment. ctx cancellation is cooperative:
	// grid experiments stop dispatching trials and return ctx.Err().
	Run func(ctx context.Context, req Request) (*Result, error)
}

// Resolve validates a raw parameter assignment against the schema and
// returns the resolved map (defaults applied, values canonical) plus the
// canonical string used for content addressing. Unknown keys and
// malformed values are errors.
func (e *Experiment) Resolve(raw map[string]string) (map[string]string, string, error) {
	specs := make(map[string]*ParamSpec, len(e.Params))
	for i := range e.Params {
		specs[e.Params[i].Name] = &e.Params[i]
	}
	for k := range raw {
		if _, ok := specs[k]; !ok {
			return nil, "", fmt.Errorf("registry: experiment %q has no parameter %q", e.Name, k)
		}
	}
	resolved := make(map[string]string, len(e.Params))
	for i := range e.Params {
		ps := &e.Params[i]
		v, ok := raw[ps.Name]
		if !ok {
			v = ps.Default
		}
		canon, err := canonicalValue(ps, v)
		if err != nil {
			return nil, "", fmt.Errorf("registry: experiment %q parameter %q: %w", e.Name, ps.Name, err)
		}
		resolved[ps.Name] = canon
	}
	keys := make([]string, 0, len(resolved))
	for k := range resolved {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		b.WriteString(k)
		b.WriteByte('=')
		b.WriteString(resolved[k])
		b.WriteByte('\n')
	}
	return resolved, b.String(), nil
}

func canonicalValue(ps *ParamSpec, v string) (string, error) {
	switch ps.Kind {
	case Uint64Kind:
		u, err := strconv.ParseUint(strings.TrimSpace(v), 0, 64)
		if err != nil {
			return "", fmt.Errorf("not a uint64: %q", v)
		}
		return strconv.FormatUint(u, 10), nil
	case FloatListKind:
		fs, err := ParseFloatList(v)
		if err != nil {
			return "", err
		}
		parts := make([]string, len(fs))
		for i, f := range fs {
			parts[i] = strconv.FormatFloat(f, 'g', -1, 64)
		}
		return strings.Join(parts, ","), nil
	case StringListKind:
		toks := SplitList(v)
		if len(toks) == 0 {
			return "", fmt.Errorf("empty list")
		}
		for _, tok := range toks {
			ok := false
			for _, e := range ps.Enum {
				if tok == e {
					ok = true
					break
				}
			}
			if !ok {
				return "", fmt.Errorf("token %q not in {%s}", tok, strings.Join(ps.Enum, ", "))
			}
		}
		return strings.Join(toks, ","), nil
	case HexKind:
		s := strings.ToLower(strings.TrimSpace(v))
		s = strings.TrimPrefix(s, "0x")
		if s == "" || len(s)%2 != 0 {
			return "", fmt.Errorf("not an even-length hex string: %q", v)
		}
		if _, err := hex.DecodeString(s); err != nil {
			return "", fmt.Errorf("not hex: %q", v)
		}
		return s, nil
	default:
		return "", fmt.Errorf("unknown parameter kind %q", ps.Kind)
	}
}

// SplitList splits a comma-separated parameter value into trimmed,
// non-empty tokens.
func SplitList(v string) []string {
	var out []string
	for _, tok := range strings.Split(v, ",") {
		tok = strings.TrimSpace(tok)
		if tok != "" {
			out = append(out, tok)
		}
	}
	return out
}

// ParseFloatList parses a comma-separated list of finite floats.
func ParseFloatList(v string) ([]float64, error) {
	toks := SplitList(v)
	if len(toks) == 0 {
		return nil, fmt.Errorf("empty list")
	}
	out := make([]float64, len(toks))
	for i, tok := range toks {
		f, err := strconv.ParseFloat(tok, 64)
		if err != nil {
			return nil, fmt.Errorf("not a float: %q", tok)
		}
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return nil, fmt.Errorf("not a finite float: %q", tok)
		}
		out[i] = f
	}
	return out, nil
}

// Registry is an ordered, name-indexed set of experiments.
type Registry struct {
	list   []*Experiment
	byName map[string]*Experiment
}

// New builds a registry. Duplicate names panic: the catalog is program
// structure, not input.
func New(exps ...*Experiment) *Registry {
	r := &Registry{byName: make(map[string]*Experiment, len(exps))}
	for _, e := range exps {
		if e.Run == nil {
			panic(fmt.Sprintf("registry: experiment %q has no Run", e.Name))
		}
		if _, dup := r.byName[e.Name]; dup {
			panic(fmt.Sprintf("registry: duplicate experiment %q", e.Name))
		}
		r.list = append(r.list, e)
		r.byName[e.Name] = e
	}
	return r
}

// Lookup returns the experiment with the given name.
func (r *Registry) Lookup(name string) (*Experiment, bool) {
	e, ok := r.byName[name]
	return e, ok
}

// Experiments returns the catalog in declaration order. The slice is
// shared; treat it as read-only.
func (r *Registry) Experiments() []*Experiment { return r.list }

// Match returns the experiments whose name contains substr, in catalog
// order. An empty substr matches everything.
func (r *Registry) Match(substr string) []*Experiment {
	var out []*Experiment
	for _, e := range r.list {
		if strings.Contains(e.Name, substr) {
			out = append(out, e)
		}
	}
	return out
}

// Fingerprint hashes the catalog's cache-relevant surface: experiment
// names, slow flags, artifact kinds, and full parameter schemas, in
// declaration order with every field length-prefixed (so no two
// distinct catalogs can collide by concatenation). Two nodes whose
// fingerprints match resolve every RunSpec to the same cache key, which
// is the precondition for exchanging work across the fabric.
func (r *Registry) Fingerprint() string {
	h := sha256.New()
	writeField := func(s string) {
		var n [8]byte
		binary.LittleEndian.PutUint64(n[:], uint64(len(s)))
		h.Write(n[:])
		h.Write([]byte(s))
	}
	for _, e := range r.list {
		writeField(e.Name)
		if e.Slow {
			writeField("slow")
		} else {
			writeField("fast")
		}
		for _, k := range e.ArtifactKinds {
			writeField(k)
		}
		for i := range e.Params {
			ps := &e.Params[i]
			writeField(ps.Name)
			writeField(string(ps.Kind))
			writeField(ps.Default)
			for _, en := range ps.Enum {
				writeField(en)
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}
