package waldo

import (
	"bytes"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// TestOperationsDocCoversEveryMetric pins OPERATIONS.md to the code: every
// waldo_* metric name registered anywhere in non-test source must appear
// in the runbook's metrics reference, so an operator grepping an alert
// always finds guidance. Adding a metric means documenting it (with an
// alert threshold) in the same change.
func TestOperationsDocCoversEveryMetric(t *testing.T) {
	doc := readFile(t, "OPERATIONS.md")
	metricRE := regexp.MustCompile(`"(waldo_[a-z0-9_]+)"`)
	seen := map[string][]string{}
	// bench/ only reads series off the processes it measures; it
	// registers none.
	walkTree(t, func(path string) {
		if strings.HasPrefix(path, "bench/") || !isNonTestGo(path) {
			return
		}
		for _, m := range metricRE.FindAllSubmatch(readFile(t, path), -1) {
			name := string(m[1])
			seen[name] = append(seen[name], path)
		}
	})
	if len(seen) < 20 {
		t.Fatalf("found only %d waldo_* metric names in source; the scan is broken", len(seen))
	}

	for name, files := range seen {
		if !bytes.Contains(doc, []byte(name)) {
			t.Errorf("metric %s (registered in %s) is not documented in OPERATIONS.md", name, files[0])
		}
	}
}

// TestClusterMetricsDocumentedWithAlerts holds the cluster tier to a
// stricter bar than mere mention: every waldo_cluster_* series must have
// its own runbook table row with a non-empty Alert column, because the
// cluster metrics are the only way an operator can tell a routing
// misconfiguration from a dead shard.
func TestClusterMetricsDocumentedWithAlerts(t *testing.T) {
	doc, err := os.ReadFile("OPERATIONS.md")
	if err != nil {
		t.Fatalf("read OPERATIONS.md: %v", err)
	}

	// Table rows documenting a metric: | `name` | meaning | alert |
	rowRE := regexp.MustCompile("(?m)^\\|\\s*`(waldo_cluster_[a-z0-9_]+)`\\s*\\|([^|]*)\\|([^|]*)\\|")
	documented := map[string]bool{}
	for _, m := range rowRE.FindAllSubmatch(doc, -1) {
		name := string(m[1])
		if strings.TrimSpace(string(m[2])) == "" {
			t.Errorf("OPERATIONS.md row for %s has an empty Meaning column", name)
		}
		if strings.TrimSpace(string(m[3])) == "" {
			t.Errorf("OPERATIONS.md row for %s has an empty Alert column", name)
		}
		documented[name] = true
	}

	metricRE := regexp.MustCompile(`"(waldo_cluster_[a-z0-9_]+)"`)
	err = filepath.WalkDir("internal/cluster", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range metricRE.FindAllSubmatch(src, -1) {
			name := string(m[1])
			if !documented[name] {
				t.Errorf("cluster metric %s (in %s) has no alert-bearing table row in OPERATIONS.md §2.5", name, path)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(documented) < 9 {
		t.Errorf("OPERATIONS.md documents only %d waldo_cluster_* rows; the cluster tier exports 9", len(documented))
	}
}

// TestGeoindexMetricsDocumentedWithAlerts holds the availability-grid
// series to the alert-bearing-row bar. The grid fails quiet: a rebuild
// hook that comes unwired produces no errors anywhere — queries just
// serve an ever-staler snapshot — so the waldo_geoindex_* rows in
// OPERATIONS.md §2.8 are the only tripwire, and each must say when to
// alert. The series are registered in two packages (the index itself
// and the dbserver query handlers); scan both.
func TestGeoindexMetricsDocumentedWithAlerts(t *testing.T) {
	doc, err := os.ReadFile("OPERATIONS.md")
	if err != nil {
		t.Fatalf("read OPERATIONS.md: %v", err)
	}

	rowRE := regexp.MustCompile("(?m)^\\|\\s*`(waldo_geoindex_[a-z0-9_]+)`\\s*\\|([^|]*)\\|([^|]*)\\|")
	documented := map[string]bool{}
	for _, m := range rowRE.FindAllSubmatch(doc, -1) {
		name := string(m[1])
		if strings.TrimSpace(string(m[2])) == "" {
			t.Errorf("OPERATIONS.md row for %s has an empty Meaning column", name)
		}
		if strings.TrimSpace(string(m[3])) == "" {
			t.Errorf("OPERATIONS.md row for %s has an empty Alert column", name)
		}
		documented[name] = true
	}

	metricRE := regexp.MustCompile(`"(waldo_geoindex_[a-z0-9_]+)"`)
	for _, dir := range []string{"internal/geoindex", "internal/dbserver"} {
		err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return nil
			}
			src, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			for _, m := range metricRE.FindAllSubmatch(src, -1) {
				name := string(m[1])
				if !documented[name] {
					t.Errorf("geoindex metric %s (in %s) has no alert-bearing table row in OPERATIONS.md §2.8", name, path)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if len(documented) < 8 {
		t.Errorf("OPERATIONS.md documents only %d waldo_geoindex_* rows; the grid exports 8", len(documented))
	}
}

// TestObservabilityMetricsDocumentedWithAlerts holds the observability
// pipeline's own series (flight recorder, structured log) to the same
// bar as the cluster tier: an alert-bearing table row each, not a mere
// mention — these metrics are what tells an operator their telemetry is
// lying to them, so "documented somewhere" isn't enough.
func TestObservabilityMetricsDocumentedWithAlerts(t *testing.T) {
	doc, err := os.ReadFile("OPERATIONS.md")
	if err != nil {
		t.Fatalf("read OPERATIONS.md: %v", err)
	}

	rowRE := regexp.MustCompile("(?m)^\\|\\s*`(waldo_(?:trace|log)_[a-z0-9_]+)`\\s*\\|([^|]*)\\|([^|]*)\\|")
	documented := map[string]bool{}
	for _, m := range rowRE.FindAllSubmatch(doc, -1) {
		name := string(m[1])
		if strings.TrimSpace(string(m[2])) == "" {
			t.Errorf("OPERATIONS.md row for %s has an empty Meaning column", name)
		}
		if strings.TrimSpace(string(m[3])) == "" {
			t.Errorf("OPERATIONS.md row for %s has an empty Alert column", name)
		}
		documented[name] = true
	}

	metricRE := regexp.MustCompile(`"(waldo_(?:trace|log)_[a-z0-9_]+)"`)
	for _, dir := range []string{"internal/telemetry", "internal/wlog"} {
		err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return nil
			}
			src, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			for _, m := range metricRE.FindAllSubmatch(src, -1) {
				name := string(m[1])
				if !documented[name] {
					t.Errorf("observability metric %s (in %s) has no alert-bearing table row in OPERATIONS.md §2.6", name, path)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if len(documented) < 4 {
		t.Errorf("OPERATIONS.md documents only %d waldo_trace_*/waldo_log_* rows; the pipeline exports 4", len(documented))
	}
}

// TestDocsNameOnlyWhatExists keeps the docs from dangling: every `make
// <target>` that README.md, OPERATIONS.md, DESIGN.md and the verify skill
// name (in backticks or at the start of a code-block line) is a target in
// the Makefile, every scripts/*.sh, internal/<pkg>, cmd/<name> and
// examples/<name> path they name exists, every waldo-<name> binary they
// name (bare, under bin/ or under cmd/) is a directory under cmd/, every
// WALDO_* environment variable they name is read by a non-test .go file,
// every "DESIGN.md §N" that a .go file, the Makefile, OPERATIONS.md or
// README.md names is a "## N." heading of DESIGN.md, and the artifacts
// of the measurement stacks that bench/ replaced (BENCH_ + a digit or E)
// are named nowhere but the history files and bench/ itself. Deleting a
// target, binary, script, variable, package or section means deleting
// its mentions in the same change.
func TestDocsNameOnlyWhatExists(t *testing.T) {
	makefile, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatalf("read Makefile: %v", err)
	}
	targets := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^([a-z][a-z0-9-]*):`).FindAllSubmatch(makefile, -1) {
		targets[string(m[1])] = true
	}
	if len(targets) < 10 {
		t.Fatalf("found only %d Makefile targets; the scan is broken", len(targets))
	}

	makeRE := regexp.MustCompile("(?m)(?:`|^\\s*)make ([a-z][a-z0-9-]*)")
	pathRE := regexp.MustCompile(`\b(scripts/[a-z0-9_]+\.sh|internal/[a-z0-9]+|cmd/[a-z0-9-]+|examples/[a-z0-9-]+)`)
	binaryRE := regexp.MustCompile(`\bwaldo-[a-z][a-z0-9]*(?:-[a-z0-9]+)*`)
	envRE := regexp.MustCompile(`\bWALDO_[A-Z_]+`)
	for _, name := range []string{"README.md", "OPERATIONS.md", "DESIGN.md", ".claude/skills/verify/SKILL.md"} {
		doc, err := os.ReadFile(name)
		if err != nil {
			t.Fatalf("read %s: %v", name, err)
		}
		for _, m := range makeRE.FindAllSubmatch(doc, -1) {
			if target := string(m[1]); !targets[target] {
				t.Errorf("%s names `make %s`, which is not a Makefile target", name, target)
			}
		}
		for _, m := range pathRE.FindAllSubmatch(doc, -1) {
			if _, err := os.Stat(string(m[1])); err != nil {
				t.Errorf("%s names %s, which does not exist", name, m[1])
			}
		}
		for _, m := range binaryRE.FindAll(doc, -1) {
			if fi, err := os.Stat(filepath.Join("cmd", string(m))); err != nil || !fi.IsDir() {
				t.Errorf("%s names the binary %s, which is not a directory under cmd/", name, m)
			}
		}
		for _, m := range envRE.FindAll(doc, -1) {
			if !readByGoSource(t, string(m)) {
				t.Errorf("%s names the environment variable %s, which no non-test .go file reads", name, m)
			}
		}
	}

	design := readFile(t, "DESIGN.md")
	sectionRE := regexp.MustCompile(`DESIGN\.md §(\d+)`)
	legacyRE := regexp.MustCompile(`BENCH_[0-9E]`)
	history := map[string]bool{"CHANGES.md": true, "ROADMAP.md": true, "ISSUE.md": true}
	sectionRefs := 0
	walkTree(t, func(path string) {
		if history[path] || strings.HasPrefix(path, "bench/") {
			return
		}
		if legacyRE.MatchString(path) {
			t.Errorf("%s: a legacy benchmark artifact is back; bench/ is the one measurement system", path)
			return
		}
		switch filepath.Ext(path) {
		case ".go", ".md", ".sh", ".json", "":
		default:
			return
		}
		src := readFile(t, path)
		if tok := legacyRE.Find(src); tok != nil {
			t.Errorf("%s names %s…, an artifact of a deleted measurement stack", path, tok)
		}
		if filepath.Ext(path) != ".go" && path != "Makefile" && path != "OPERATIONS.md" && path != "README.md" {
			return
		}
		for _, m := range sectionRE.FindAllSubmatch(src, -1) {
			sectionRefs++
			if !bytes.Contains(design, []byte("\n## "+string(m[1])+". ")) {
				t.Errorf("%s names DESIGN.md §%s, which is not a section heading", path, m[1])
			}
		}
	})
	if sectionRefs < 20 {
		t.Errorf("found only %d DESIGN.md § references; the scan is broken", sectionRefs)
	}
}

// readByGoSource reports whether any non-test .go file in the module
// holds the quoted name, as the argument of an environment lookup must.
func readByGoSource(t *testing.T, name string) bool {
	t.Helper()
	found := false
	walkTree(t, func(path string) {
		if !found && isNonTestGo(path) {
			found = bytes.Contains(readFile(t, path), []byte(strconv.Quote(name)))
		}
	})
	return found
}

// walkTree calls fn with the slash-relative path of every file in the
// checkout outside .git, bin/ and .bench_build/, which can hold a parent
// checkout whose source is not this tree's.
func walkTree(t *testing.T, fn func(path string)) {
	t.Helper()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			switch path {
			case ".git", ".bench_build", "bin":
				return filepath.SkipDir
			}
			return nil
		}
		fn(filepath.ToSlash(path))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func isNonTestGo(path string) bool {
	return strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go")
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	src, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return src
}
