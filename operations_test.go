package waldo

import (
	"bytes"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"maps"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// TestOperationsDocCoversEveryMetric pins OPERATIONS.md to the code:
// every waldo_* series registered in non-test source has its own
// runbook table row (| `name` | meaning | alert |) with non-empty
// Meaning and Alert columns, so an operator grepping an alert always
// finds what it measures and when to act. Adding a metric means adding
// its row in the same change.
func TestOperationsDocCoversEveryMetric(t *testing.T) {
	requireAlertRows(t, regexp.MustCompile(`^waldo_`))
}

// TestClusterMetricsDocumentedWithAlerts: the cluster metrics are the
// only way an operator can tell a routing misconfiguration from a dead
// shard, so the tier's 9 series must all be found, each with its
// alert-bearing row in OPERATIONS.md §2.5.
func TestClusterMetricsDocumentedWithAlerts(t *testing.T) {
	if n := requireAlertRows(t, regexp.MustCompile(`^waldo_cluster_`)); n < 9 {
		t.Errorf("found only %d waldo_cluster_* metric names in source, want >= 9; the scan is broken", n)
	}
}

// TestGeoindexMetricsDocumentedWithAlerts: the availability grid fails
// quiet — a rebuild hook that comes unwired only serves an ever-staler
// snapshot — so its 7 series (registered by the index and by the
// dbserver query handlers) must all be found, each with its
// alert-bearing row in OPERATIONS.md §2.8.
func TestGeoindexMetricsDocumentedWithAlerts(t *testing.T) {
	if n := requireAlertRows(t, regexp.MustCompile(`^waldo_geoindex_`)); n < 7 {
		t.Errorf("found only %d waldo_geoindex_* metric names in source, want >= 7; the scan is broken", n)
	}
}

// TestObservabilityMetricsDocumentedWithAlerts: the flight recorder's
// and structured log's own series tell an operator their telemetry is
// lying to them, so all 4 must be found, each with its alert-bearing
// row in OPERATIONS.md §2.6.
func TestObservabilityMetricsDocumentedWithAlerts(t *testing.T) {
	if n := requireAlertRows(t, regexp.MustCompile(`^waldo_(?:trace|log)_`)); n < 4 {
		t.Errorf("found only %d waldo_trace_*/waldo_log_* metric names in source, want >= 4; the scan is broken", n)
	}
}

// requireAlertRows fails t for every metric registered in non-test
// source whose name matches family but has no OPERATIONS.md table row
// with non-empty Meaning and Alert columns, and returns how many such
// metrics the source registers.
func requireAlertRows(t *testing.T, family *regexp.Regexp) int {
	t.Helper()
	rowRE := regexp.MustCompile("(?m)^\\|\\s*`(waldo_[a-z0-9_]+)`\\s*\\|([^|]*)\\|([^|]*)\\|")
	rows := map[string]bool{}
	for _, m := range rowRE.FindAllSubmatch(readFile(t, "OPERATIONS.md"), -1) {
		name := string(m[1])
		if !family.MatchString(name) {
			continue
		}
		if strings.TrimSpace(string(m[2])) == "" {
			t.Errorf("OPERATIONS.md row for %s has an empty Meaning column", name)
		}
		if strings.TrimSpace(string(m[3])) == "" {
			t.Errorf("OPERATIONS.md row for %s has an empty Alert column", name)
		}
		rows[name] = true
	}
	n := 0
	for name, files := range registeredMetrics(t) {
		if !family.MatchString(name) {
			continue
		}
		n++
		if !rows[name] {
			t.Errorf("metric %s (registered in %s) has no OPERATIONS.md table row with Meaning and Alert columns", name, files[0])
		}
	}
	return n
}

// registeredMetrics maps every quoted waldo_* metric name in non-test
// source to the files that name it. bench/ only reads series off the
// processes it measures; it registers none.
func registeredMetrics(t *testing.T) map[string][]string {
	t.Helper()
	metricRE := regexp.MustCompile(`"(waldo_[a-z0-9_]+)"`)
	seen := map[string][]string{}
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
	return seen
}

// TestDocsNameOnlyWhatExists keeps the docs from dangling: every `make
// <target>` that README.md, OPERATIONS.md, DESIGN.md and the verify skill
// name (in backticks or at the start of a code-block line) is a target in
// the Makefile, every scripts/*.sh, internal/<pkg>, cmd/<name> and
// examples/<name> path they name exists, every waldo-<name> binary they
// name (bare, under bin/ or under cmd/) is a directory under cmd/, every
// WALDO_* environment variable they name is read by a non-test .go file,
// every complete waldo_* metric name they name is registered by non-test
// source (a family prefix ending in "_" and a histogram's _bucket, _sum
// or _count series pass), every exported `pkg.Ident` they name in
// backticks, pkg a package under internal/ or cmd/, is declared at the
// top level of that package's non-test files, every "DESIGN.md §N" that a .go file, the
// Makefile, OPERATIONS.md or README.md names is a "## N." heading of
// DESIGN.md, and the artifacts of the measurement stacks that bench/
// replaced (BENCH_ + a digit or E) are named nowhere but the history
// files and bench/ itself. Deleting a target, binary, script, variable,
// metric, identifier, package or section means deleting its mentions in
// the same change.
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
	metricRE := regexp.MustCompile(`\bwaldo_[a-z0-9_]+`)
	metrics := registeredMetrics(t)
	codeRE := regexp.MustCompile("`[^`]+`")
	identRE := regexp.MustCompile(`(?:^|[^\w./])([a-z][a-z0-9]*)\.([A-Z]\w*)`)
	declared := map[string]map[string]bool{} // package directory name → its top-level names
	for _, root := range []string{"internal", "cmd"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			switch {
			case err != nil || !d.IsDir():
				return err
			case d.Name() == "testdata":
				return filepath.SkipDir
			}
			declared[d.Name()] = topLevelNames(t, path)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	idents := 0
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
		for _, m := range metricRE.FindAll(doc, -1) {
			metric := string(m)
			if strings.HasSuffix(metric, "_") {
				continue
			}
			base := metric
			for _, suffix := range []string{"_bucket", "_sum", "_count"} {
				base = strings.TrimSuffix(base, suffix)
			}
			if metrics[metric] == nil && metrics[base] == nil {
				t.Errorf("%s names the metric %s, which no non-test .go file registers", name, metric)
			}
		}
		for _, span := range codeRE.FindAll(doc, -1) {
			for _, m := range identRE.FindAllSubmatch(span, -1) {
				pkg, ident := string(m[1]), string(m[2])
				if names, ok := declared[pkg]; ok {
					idents++
					if !names[ident] {
						t.Errorf("%s names `%s.%s`, which package %s does not declare", name, pkg, ident, pkg)
					}
				}
			}
		}
	}
	if idents < 20 {
		t.Errorf("checked only %d backticked pkg.Ident names; the scan is broken", idents)
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

// TestDocsFlagsExist: every -flag on a waldo-server, waldo-gateway,
// waldo-wardrive or waldo-bench command line inside a fenced code block
// of README.md, OPERATIONS.md, DESIGN.md or the verify skill is defined
// by that binary's flag set, so a removed flag cannot linger in a
// command an operator copies. Flags named in prose, or in a shell
// comment, are out of its scope.
func TestDocsFlagsExist(t *testing.T) {
	defined := map[string]map[string]bool{}
	for _, bin := range []string{"waldo-server", "waldo-gateway", "waldo-wardrive", "waldo-bench"} {
		if defined[bin] = flagsOf(t, filepath.Join("cmd", bin)); len(defined[bin]) == 0 {
			t.Fatalf("found no flags in cmd/%s; the scan is broken", bin)
		}
	}
	cmdRE := regexp.MustCompile(`(?:^|[\s;&|(])(?:\S*/)?(waldo-(?:server|gateway|wardrive|bench))((?:\s+[^\s;&|]+)*)`)
	commentRE := regexp.MustCompile(`(?:^|\s)#.*$`)
	flagRE := regexp.MustCompile(`^--?([a-z][a-z0-9-]*)(?:=|$)`)
	checked := 0
	for _, name := range []string{"README.md", "OPERATIONS.md", "DESIGN.md", ".claude/skills/verify/SKILL.md"} {
		inBlock, line := false, ""
		for _, raw := range strings.Split(string(readFile(t, name)), "\n") {
			if strings.HasPrefix(strings.TrimSpace(raw), "```") {
				inBlock, line = !inBlock, ""
				continue
			}
			if !inBlock {
				continue
			}
			if line += raw; strings.HasSuffix(line, "\\") { // continued on the next line
				line = strings.TrimSuffix(line, "\\") + " "
				continue
			}
			for _, m := range cmdRE.FindAllStringSubmatch(commentRE.ReplaceAllString(line, ""), -1) {
				for _, arg := range strings.Fields(m[2]) {
					if f := flagRE.FindStringSubmatch(arg); f != nil {
						checked++
						if !defined[m[1]][f[1]] {
							t.Errorf("%s runs %s -%s, a flag it does not define", name, m[1], f[1])
						}
					}
				}
			}
			line = ""
		}
	}
	if checked < 10 {
		t.Errorf("checked only %d flags on documented command lines; the scan is broken", checked)
	}
}

// topLevelNames returns the names the non-test Go files in dir declare at
// the top level: functions (not methods), types, constants and
// variables.
func topLevelNames(t *testing.T, dir string) map[string]bool {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, path := range paths {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					names[d.Name.Name] = true
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						names[s.Name.Name] = true
					case *ast.ValueSpec:
						for _, n := range s.Names {
							names[n.Name] = true
						}
					}
				}
			}
		}
	}
	return names
}

// flagsOf returns the flag names the non-test Go files in dir define.
func flagsOf(t *testing.T, dir string) map[string]bool {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, path := range paths {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range definedFlags(f) {
			names[name] = true
		}
	}
	return names
}

// definedFlags returns the flag names f defines: the first argument of a
// flag.String-style call, the second of a flag.StringVar-style one.
func definedFlags(f *ast.File) []string {
	var names []string
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		arg := 0
		switch sel.Sel.Name {
		case "String", "Int", "Int64", "Uint", "Uint64", "Bool", "Duration", "Float64", "Func", "BoolFunc":
		case "StringVar", "IntVar", "Int64Var", "UintVar", "Uint64Var", "BoolVar", "DurationVar", "Float64Var", "Var", "TextVar":
			arg = 1
		default:
			return true
		}
		if len(call.Args) > arg {
			if lit, ok := call.Args[arg].(*ast.BasicLit); ok && lit.Kind == token.STRING {
				name, _ := strconv.Unquote(lit.Value)
				names = append(names, name)
			}
		}
		return true
	})
	return names
}

// TestMakefileRunPatternsMatch: a `go test -run` pattern that matches
// nothing passes silently, so every alternative of every -run pattern in
// the Makefile's recipes, and in the go test commands README.md,
// OPERATIONS.md, DESIGN.md and the verify skill show (fenced, or in
// inline backticks that may wrap), must match a Test or Fuzz function in
// that command's packages. Commands with -bench or -fuzz are skipped:
// their -run selects no test on purpose. Only the pattern's top level
// (before the first "/") is checked.
func TestMakefileRunPatternsMatch(t *testing.T) {
	funcRE := regexp.MustCompile(`(?m)^func ((?:Test|Fuzz)[A-Za-z0-9_]*)\(`)
	for _, src := range []struct {
		files []string
		min   int // alternatives; fewer means the scan is broken
	}{
		{[]string{"Makefile"}, 5},
		{[]string{"README.md", "OPERATIONS.md", "DESIGN.md", ".claude/skills/verify/SKILL.md"}, 40},
	} {
		checked := 0
		for _, name := range src.files {
			for _, cmd := range goTestCommands(string(readFile(t, name)), name != "Makefile") {
				if slices.Contains(cmd, "-bench") || slices.Contains(cmd, "-fuzz") {
					continue
				}
				var run string
				var pkgs []string
				for i := 0; i < len(cmd); i++ {
					switch tok := cmd[i]; {
					case tok == "-run" && i+1 < len(cmd):
						i++
						run = strings.Trim(cmd[i], "'")
					case strings.HasPrefix(tok, "./"):
						pkgs = append(pkgs, tok)
					}
				}
				if run == "" {
					continue
				}
				if len(pkgs) == 0 {
					pkgs = []string{"."}
				}
				line := strings.Join(cmd, " ")
				var names []string
				for _, pkg := range pkgs {
					files, err := filepath.Glob(filepath.Join(pkg, "*_test.go"))
					if err != nil || len(files) == 0 {
						t.Fatalf("%s: %s holds no test files: %q", name, pkg, line)
					}
					for _, f := range files {
						for _, m := range funcRE.FindAllSubmatch(readFile(t, f), -1) {
							names = append(names, string(m[1]))
						}
					}
				}
				for _, alt := range strings.Split(strings.SplitN(run, "/", 2)[0], "|") {
					re, err := regexp.Compile(alt)
					if err != nil {
						t.Fatalf("%s: -run alternative %q: %v", name, alt, err)
					}
					if !slices.ContainsFunc(names, re.MatchString) {
						t.Errorf("%s: -run alternative %q matches no Test or Fuzz function in %q", name, alt, line)
					}
					checked++
				}
			}
		}
		if checked < src.min {
			t.Errorf("checked only %d -run alternatives in %v; the scan is broken", checked, src.files)
		}
	}
}

// goTestCommands returns the arguments after "go test" (in a Makefile,
// "$(GO) test") of every go test command in text, up to the first shell
// separator or comment. In Markdown only code counts: fenced lines, with
// backslash continuations joined, and inline code spans.
func goTestCommands(text string, markdown bool) [][]string {
	code := strings.Split(text, "\n")
	if markdown {
		code = code[:0:0]
		var prose strings.Builder
		inBlock, line := false, ""
		for _, raw := range strings.Split(text, "\n") {
			switch {
			case strings.HasPrefix(strings.TrimSpace(raw), "```"):
				inBlock, line = !inBlock, ""
			case !inBlock:
				prose.WriteString(raw + "\n")
			case strings.HasSuffix(raw, "\\"):
				line += strings.TrimSuffix(raw, "\\") + " "
			default:
				code, line = append(code, line+raw), ""
			}
		}
		for _, m := range regexp.MustCompile("`([^`]+)`").FindAllStringSubmatch(prose.String(), -1) {
			code = append(code, m[1])
		}
	}
	startRE := regexp.MustCompile(`(?:\$\(GO\)|\bgo) test\s`)
	tokRE := regexp.MustCompile(`'[^']*'|\S+`)
	var cmds [][]string
	for _, c := range code {
		for _, loc := range startRE.FindAllStringIndex(c, -1) {
			var cmd []string
			for _, tok := range tokRE.FindAllString(c[loc[1]:], -1) {
				if tok == ";" || tok == "&&" || tok == "||" || tok == "|" || strings.HasPrefix(tok, "#") {
					break
				}
				cmd = append(cmd, tok)
			}
			cmds = append(cmds, cmd)
		}
	}
	return cmds
}

// TestExportedIdentifiersDocumented: public surface means documented
// surface (DESIGN.md §11). In the packages whose exported API is a
// contract — the availability grid and the device client — every
// exported package-level identifier, method, struct field and interface
// method carries a doc comment. The list grows a package at a time as
// packages get their docs audit; it never shrinks. The first cases check
// the checker.
func TestExportedIdentifiersDocumented(t *testing.T) {
	writePkg := func(t *testing.T, files map[string]string) string {
		dir := t.TempDir()
		for name, src := range files {
			if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		return dir
	}
	check := func(t *testing.T, dir string) map[string]string {
		ps, err := undocumented(dir)
		if err != nil {
			t.Fatal(err)
		}
		got := map[string]string{}
		for _, p := range ps {
			got[p.name] = p.kind
		}
		return got
	}
	t.Run("flags_undocumented", func(t *testing.T) {
		got := check(t, writePkg(t, map[string]string{"pkg.go": `package p

type Exported struct {
	Field   int
	Commented int // trailing comments count as docs
}

func Undoc() {}

func (e *Exported) Method() {}

const Loose = 1

var V = 2

type Iface interface {
	Do()
}
`}))
		want := map[string]string{
			"Exported": "type", "Exported.Field": "field", "Undoc": "func", "Exported.Method": "method",
			"Loose": "const", "V": "var", "Iface": "type", "Iface.Do": "method",
		}
		if !maps.Equal(got, want) {
			t.Errorf("flagged %v, want %v", got, want)
		}
	})
	t.Run("accepts_documented_and_unexported", func(t *testing.T) {
		got := check(t, writePkg(t, map[string]string{"pkg.go": `package p

// Exported is documented.
type Exported struct {
	// Field is documented.
	Field int
	hidden int
}

// Do does.
func Do() {}

// Grouped consts share one doc comment.
const (
	A = 1
	B = 2
)

// internal surface: methods on unexported types pass undocumented even
// when capitalized (interface satisfaction).
type impl struct{}

func (impl) Do() {}

func helper() {}
`}))
		if len(got) != 0 {
			t.Errorf("expected no problems, got %v", got)
		}
	})
	t.Run("skips_test_files", func(t *testing.T) {
		got := check(t, writePkg(t, map[string]string{
			"pkg.go":      "package p\n\n// Doc'd.\nfunc Doc() {}\n",
			"pkg_test.go": "package p\n\nfunc TestUndocumentedHelper() {}\n",
		}))
		if len(got) != 0 {
			t.Errorf("test files must be exempt, got %v", got)
		}
	})
	for _, dir := range []string{"internal/geoindex", "internal/client"} {
		ps, err := undocumented(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range ps {
			t.Errorf("%s: undocumented exported %s %s", p.pos, p.kind, p.name)
		}
	}
}

// docProblem is one undocumented exported identifier.
type docProblem struct {
	pos  string // file:line
	kind string // "func", "method", "type", "const", "var", "field"
	name string
}

// undocumented parses every non-test .go file in dir and reports the
// exported identifiers lacking doc comments, in source order.
func undocumented(dir string) ([]docProblem, error) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		return nil, err
	}
	var problems []docProblem
	add := func(pos token.Pos, kind, name string) {
		p := fset.Position(pos)
		problems = append(problems, docProblem{pos: p.Filename + ":" + strconv.Itoa(p.Line), kind: kind, name: name})
	}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					checkFuncDoc(d, add)
				case *ast.GenDecl:
					checkGenDoc(d, add)
				}
			}
		}
	}
	sort.Slice(problems, func(i, j int) bool { return problems[i].pos < problems[j].pos })
	return problems, nil
}

// checkFuncDoc flags exported functions and exported methods on
// exported receivers. Methods on unexported types are internal surface
// even when capitalized (interface satisfaction), so they pass
// undocumented.
func checkFuncDoc(d *ast.FuncDecl, add func(token.Pos, string, string)) {
	if !d.Name.IsExported() || d.Doc != nil {
		return
	}
	kind, name := "func", d.Name.Name
	if d.Recv != nil && len(d.Recv.List) == 1 {
		recv := receiverName(d.Recv.List[0].Type)
		if recv == "" || !ast.IsExported(recv) {
			return
		}
		kind, name = "method", recv+"."+d.Name.Name
	}
	add(d.Pos(), kind, name)
}

// receiverName unwraps *T / T / generic T[P] receivers to the type name.
func receiverName(expr ast.Expr) string {
	switch t := expr.(type) {
	case *ast.StarExpr:
		return receiverName(t.X)
	case *ast.IndexExpr:
		return receiverName(t.X)
	case *ast.IndexListExpr:
		return receiverName(t.X)
	case *ast.Ident:
		return t.Name
	}
	return ""
}

// checkGenDoc flags exported names in type/const/var declarations, and
// the undocumented exported fields and interface methods of exported
// types. A doc comment may sit on the declaration group, the individual
// spec, or (for consts, vars, and fields) as a trailing line comment —
// any of the places godoc renders from.
func checkGenDoc(d *ast.GenDecl, add func(token.Pos, string, string)) {
	groupDoc := d.Doc != nil
	for _, spec := range d.Specs {
		switch s := spec.(type) {
		case *ast.TypeSpec:
			if !s.Name.IsExported() {
				continue
			}
			if !groupDoc && s.Doc == nil && s.Comment == nil {
				add(s.Pos(), "type", s.Name.Name)
			}
			var members []*ast.Field
			kind := "field"
			switch t := s.Type.(type) {
			case *ast.StructType:
				members = t.Fields.List
			case *ast.InterfaceType:
				members, kind = t.Methods.List, "method"
			}
			for _, f := range members {
				if f.Doc != nil || f.Comment != nil {
					continue
				}
				for _, name := range f.Names {
					if name.IsExported() {
						add(name.Pos(), kind, s.Name.Name+"."+name.Name)
					}
				}
			}
		case *ast.ValueSpec:
			kind := "var"
			if d.Tok == token.CONST {
				kind = "const"
			}
			for _, name := range s.Names {
				if name.IsExported() && !groupDoc && s.Doc == nil && s.Comment == nil {
					add(name.Pos(), kind, name.Name)
				}
			}
		}
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

// writeTree writes files, keyed by slash path, under a fresh temporary
// directory and returns it: the module a checker's own case runs on.
func writeTree(t *testing.T, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
	for name, src := range files {
		path := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

// TestConfigFieldsHaveACaller: a value nobody sets is a constant. Every
// exported field of a *Config, *Options or *Policy struct in a package
// that a binary under cmd/ or the benchmark links is set by non-test
// code outside its own package — as a composite-literal key or by
// assignment — or is on configFieldAllowlist with the reason it stays a
// field. A test does not count as a caller: a field only a test sets is
// a knob no deployment turns, unless the test substitutes it for time or
// for faults, which the allowlist says. The first cases check the
// checker.
func TestConfigFieldsHaveACaller(t *testing.T) {
	t.Run("checks_the_checker", func(t *testing.T) {
		root := writeTree(t, map[string]string{
			"go.mod": "module example.com/m\n",
			"p/p.go": `package p

type Config struct {
	ByLiteral, ByElided, ByAssign int
	OnlyOwn, OnlyTest, Unset      int
	Shadowed                      int
	hidden                        int
}

type Helper struct{ NotAConfig int }

var own = Config{OnlyOwn: 1}
`,
			"p/p_test.go": "package p\n\nvar _ = Config{OnlyTest: 1}\n",
			"cmd/app/main.go": `package main

import q "example.com/m/p"

func main() {
	_ = &q.Config{ByLiteral: 1}
	_ = []q.Config{{ByElided: 1}}
	var c q.Config
	c.ByAssign = 2
	_ = c
}
`,
			// o.Shadowed is the field of o's own type, not of p.Config.
			"o/o.go": `package o

import "example.com/m/p"

type own struct{ Shadowed int }

func Set(o *own) p.Config {
	o.Shadowed = 1
	return p.Config{}
}
`,
			"cmd/other/main.go": "package main\n\nimport \"example.com/m/o\"\n\nvar _ = o.Set\n\nfunc main() {}\n",
			"unlinked/u.go":     "package u\n\ntype Options struct{ Nobody int }\n",
		})
		got, err := unsetConfigFields(root)
		if err != nil {
			t.Fatal(err)
		}
		if want := []string{"p.Config.OnlyOwn", "p.Config.OnlyTest", "p.Config.Shadowed", "p.Config.Unset"}; !slices.Equal(got, want) {
			t.Errorf("flagged %v, want %v", got, want)
		}
	})
	got, err := unsetConfigFields(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range got {
		if configFieldAllowlist[f] == "" {
			t.Errorf("%s: no non-test code outside its package sets it; make it a constant, or allowlist it with the reason", f)
		}
	}
	for f := range configFieldAllowlist {
		if !slices.Contains(got, f) {
			t.Errorf("%s is allowlisted but has a caller (or is gone): drop its entry", f)
		}
	}
}

// configFieldAllowlist names the config fields that stay settable
// without a non-test caller outside their package, each with its reason.
var configFieldAllowlist = map[string]string{
	// Substituted by tests for time, for faults or for small limits.
	"client.BreakerPolicy.Threshold":     "resilience tests trip the breaker in a few failures",
	"client.RetryPolicy.MaxAttempts":     "resilience tests exhaust the retry budget in a few requests",
	"client.Config.Now":                  "tests substitute a clock for the breaker's cooldown",
	"client.Config.Sleep":                "tests substitute the backoff sleep",
	"cluster.GatewayConfig.MaxBodyBytes": "tests lower the cap to reach the 413 path with small bodies",
	"dbserver.Config.MaxBodyBytes":       "tests lower the cap to reach the 413 path with small bodies",
	"dbserver.Config.WALFS":              "checkpoint tests inject a faulty filesystem under the WAL",
	"dbserver.Config.WatchTimeout":       "tests shorten the watch horizon to see its 304",
	"wlog.Options.Now":                   "tests substitute the rate limiter's clock",
	"wlog.Options.Burst":                 "tests set the limiter's burst to see a suppression",
	"wlog.Options.RatePerKey":            "tests set the limiter's rate to see a suppression",
	"sensor.CalibrationConfig.LevelsDBm": "sensor tests sweep their own generator levels",
	"iq.CaptureConfig.Samples":           "kernel tests synthesize captures of every power-of-two length",
}

// unsetConfigFields parses the Go module rooted at root (go/parser only)
// and returns, sorted as pkg.Type.Field, the exported fields of the
// *Config, *Options and *Policy structs in the packages that a binary
// under cmd/ or bench/ imports, directly or not, that no non-test file
// outside the field's package sets. A composite-literal key sets a field
// when the literal's type, written or elided inside a slice or map
// literal, names the struct through an import; an assignment to x.Field
// sets it when the assigning file imports the struct's package.
func unsetConfigFields(root string) ([]string, error) {
	mod, err := parseModule(root)
	if err != nil {
		return nil, err
	}
	files, imports, linked := mod.files, mod.imports, mod.linked

	// The fields, keyed by import path, type and field name.
	type field struct{ pkg, typ, name string }
	declared := map[field]bool{}
	configType := regexp.MustCompile(`^[A-Z]\w*(Config|Options|Policy)$|^(Config|Options|Policy)$`)
	for _, f := range files {
		if !linked[f.pkg] {
			continue
		}
		ast.Inspect(f.ast, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok || !configType.MatchString(ts.Name.Name) {
				return true
			}
			if st, ok := ts.Type.(*ast.StructType); ok {
				for _, fl := range st.Fields.List {
					for _, name := range fl.Names {
						if name.IsExported() {
							declared[field{f.pkg, ts.Name.Name, name.Name}] = true
						}
					}
				}
			}
			return false
		})
	}

	// ownFields holds every struct field name each package declares: an
	// assignment to v.Name, v a variable, in a package that has a Name
	// field of its own is taken to set that one.
	ownFields := map[string]map[string]bool{}
	for _, f := range files {
		if ownFields[f.pkg] == nil {
			ownFields[f.pkg] = map[string]bool{}
		}
		ast.Inspect(f.ast, func(n ast.Node) bool {
			if st, ok := n.(*ast.StructType); ok {
				for _, fl := range st.Fields.List {
					for _, name := range fl.Names {
						ownFields[f.pkg][name.Name] = true
					}
				}
			}
			return true
		})
	}

	set := map[field]bool{}
	for _, f := range files {
		// named resolves a literal's type written as imp.T or *imp.T.
		named := func(e ast.Expr) (string, string) {
			if s, ok := e.(*ast.StarExpr); ok {
				e = s.X
			}
			if s, ok := e.(*ast.SelectorExpr); ok {
				if x, ok := s.X.(*ast.Ident); ok && f.imports[x.Name] != "" {
					return f.imports[x.Name], s.Sel.Name
				}
			}
			return "", ""
		}
		var lit func(cl *ast.CompositeLit, pkg, typ string)
		lit = func(cl *ast.CompositeLit, pkg, typ string) {
			var elemPkg, elemTyp string
			switch t := cl.Type.(type) {
			case *ast.ArrayType:
				elemPkg, elemTyp = named(t.Elt)
			case *ast.MapType:
				elemPkg, elemTyp = named(t.Value)
			}
			for _, el := range cl.Elts {
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					if k, ok := kv.Key.(*ast.Ident); ok && pkg != "" {
						set[field{pkg, typ, k.Name}] = true
					}
					el = kv.Value
				}
				if u, ok := el.(*ast.UnaryExpr); ok {
					el = u.X
				}
				if inner, ok := el.(*ast.CompositeLit); ok && inner.Type == nil && elemTyp != "" {
					lit(inner, elemPkg, elemTyp)
				}
			}
		}
		ast.Inspect(f.ast, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CompositeLit:
				if n.Type != nil {
					pkg, typ := named(n.Type)
					lit(n, pkg, typ)
				}
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					s, ok := lhs.(*ast.SelectorExpr)
					if !ok {
						continue
					}
					for fd := range declared {
						if fd.name == s.Sel.Name && fd.pkg != f.pkg && slices.Contains(imports[f.pkg], fd.pkg) && !(isIdent(s.X) && ownFields[f.pkg][fd.name]) {
							set[fd] = true
						}
					}
				}
			}
			return true
		})
	}

	var unset []string
	for fd := range declared {
		if !set[fd] {
			unset = append(unset, fd.pkg[strings.LastIndex(fd.pkg, "/")+1:]+"."+fd.typ+"."+fd.name)
		}
	}
	sort.Strings(unset)
	return unset, nil
}

func isIdent(e ast.Expr) bool {
	_, ok := e.(*ast.Ident)
	return ok
}

// goFile is one parsed non-test file of the module.
type goFile struct {
	pkg     string            // import path
	imports map[string]string // local name → import path
	ast     *ast.File
}

// goModule is the non-test source of a Go module, parsed with go/parser.
type goModule struct {
	path    string              // module path
	files   []goFile            // every non-test file outside testdata
	imports map[string][]string // import path → its files' imports
	linked  map[string]bool     // packages a binary under cmd/ or bench/ links
}

// parseModule parses every non-test .go file of the module rooted at
// root and works out which packages the binaries and the benchmark link,
// directly or not.
func parseModule(root string) (*goModule, error) {
	modData, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	m := regexp.MustCompile(`(?m)^module\s+(\S+)`).FindSubmatch(modData)
	if m == nil {
		return nil, fs.ErrInvalid
	}
	mod := &goModule{path: string(m[1]), imports: map[string][]string{}, linked: map[string]bool{}}
	fset := token.NewFileSet()
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			switch d.Name() {
			case ".git", ".bench_build", "bin", "testdata":
				return filepath.SkipDir
			}
			return nil
		}
		if !isNonTestGo(path) {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, filepath.Dir(path))
		if err != nil {
			return err
		}
		gf := goFile{pkg: mod.path, imports: map[string]string{}, ast: f}
		if rel != "." {
			gf.pkg += "/" + filepath.ToSlash(rel)
		}
		for _, imp := range f.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			name := p[strings.LastIndex(p, "/")+1:]
			if imp.Name != nil {
				name = imp.Name.Name
			}
			gf.imports[name] = p
		}
		mod.files = append(mod.files, gf)
		return nil
	})
	if err != nil {
		return nil, err
	}

	for _, f := range mod.files {
		for _, p := range f.imports {
			mod.imports[f.pkg] = append(mod.imports[f.pkg], p)
		}
	}
	var queue []string
	for _, f := range mod.files {
		if strings.HasPrefix(f.pkg, mod.path+"/cmd/") || f.pkg == mod.path+"/bench" {
			queue = append(queue, f.pkg)
		}
	}
	for len(queue) > 0 {
		p := queue[0]
		queue = queue[1:]
		if mod.linked[p] {
			continue
		}
		mod.linked[p] = true
		for _, q := range mod.imports[p] {
			if strings.HasPrefix(q, mod.path+"/") {
				queue = append(queue, q)
			}
		}
	}
	return mod, nil
}

// TestExportedHaveACaller: code that only tests reach goes. In the
// packages a binary under cmd/ or the benchmark links, every exported
// top-level identifier is named, and every exported method selected, by
// non-test code outside its own declaration — or is on exportedAllowlist
// with the reason it stays. Every package under internal/ but the test
// harnesses has a non-test importer. A test does not count as a caller:
// what only a test reaches is a reference the test can keep itself. The
// first case checks the checker.
func TestExportedHaveACaller(t *testing.T) {
	t.Run("checks_the_checker", func(t *testing.T) {
		root := writeTree(t, map[string]string{
			"go.mod": "module example.com/m\n",
			"internal/p/p.go": `package p

type T struct{}

func (T) Used()        {}
func (T) OnlyTest()    {}
func (T) String() string { return "" }
func (t T) Recursive() { t.Recursive() }

func Used() T       { return T{} }
func Unused()       {}
func OnlyOwn()      {}
func Self()         { Self() }
var _ = OnlyOwn

// Dead is named only by DeadMaker, which nothing names.
type Dead struct{}

func DeadMaker() *Dead { return &Dead{} }
`,
			"internal/p/p_test.go": "package p\n\nvar _ = Unused\n\nfunc init() { T{}.OnlyTest() }\n",
			"cmd/app/main.go": `package main

import q "example.com/m/internal/p"

func main() { q.Used().Used() }
`,
			"internal/orphan/o.go":  "package orphan\n\nfunc Nobody() {}\n",
			"internal/e2e/e2e.go":   "package e2e\n\nfunc Harness() {}\n",
			"internal/p/sub/sub.go": "package sub\n",
		})
		got, err := uncalledExported(root)
		if err != nil {
			t.Fatal(err)
		}
		want := []string{"p.Dead", "p.DeadMaker", "p.Self", "p.T.OnlyTest", "p.T.Recursive", "p.Unused", "package orphan", "package sub"}
		if !slices.Equal(got, want) {
			t.Errorf("flagged %v, want %v", got, want)
		}
	})
	got, err := uncalledExported(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range got {
		if exportedAllowlist[name] == "" {
			t.Errorf("%s: no non-test code reaches it; delete it, move what a test needs into the test, or allowlist it with the reason", name)
		}
	}
	for name := range exportedAllowlist {
		if !slices.Contains(got, name) {
			t.Errorf("%s is allowlisted but has a caller (or is gone): drop its entry", name)
		}
	}
}

// exportedAllowlist names what stays exported without a non-test caller,
// each with its reason.
var exportedAllowlist = map[string]string{
	"client.Client.WatchModel":      "the device side of the documented push route (/v1/model/watch); the chaos suite drives it",
	"client.Client.SetLocationHint": "goes with the gateway's lat/lon hint query (ROADMAP item 23)",
}

// stdInterfaceMethods are method names the standard library calls
// through its interfaces (fmt.Stringer, error, http.Handler, io.Reader
// and the rest), so a type can satisfy one with no selector of its own.
var stdInterfaceMethods = map[string]bool{
	"String": true, "GoString": true, "Format": true, "Error": true, "Unwrap": true, "Is": true,
	"ServeHTTP": true, "Header": true, "WriteHeader": true, "Flush": true, "Hijack": true,
	"Read": true, "Write": true, "Close": true, "ReadFrom": true, "WriteTo": true,
	"ReadAt": true, "WriteAt": true, "Seek": true, "Sync": true, "Stat": true,
	"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
	"MarshalJSON": true, "UnmarshalJSON": true, "MarshalText": true, "UnmarshalText": true,
	"MarshalBinary": true, "UnmarshalBinary": true,
}

// uncalledExported parses the Go module rooted at root (go/parser only)
// and returns, sorted, what no non-test code reaches in the packages a
// binary under cmd/ or bench/ links: each exported top-level identifier
// that no non-test declaration but its own names, written "pkg.Name",
// and each exported method whose name follows a dot in no non-test
// declaration but its own, written "pkg.Type.Name", unless the standard
// library calls it through an interface. Any identifier or selector that
// spells a name counts as reaching it (package-qualified from another
// package); what only flagged declarations name is flagged in turn, so a
// type that only its dead constructor and methods name goes with them.
// It also returns, written "package pkg", each package under internal/
// that no non-test file of another package imports, except the test
// harnesses e2e and cmdtest.
func uncalledExported(root string) ([]string, error) {
	mod, err := parseModule(root)
	if err != nil {
		return nil, err
	}
	short := func(pkg string) string { return pkg[strings.LastIndex(pkg, "/")+1:] }

	// One entry per top-level declaration (per spec in a group): the
	// exported names it declares in a linked package, and what it names.
	type own struct {
		name   string // as reported
		ref    string // import path + "." + name; "" for a method
		method string
	}
	type decl struct {
		owns     []own
		names    map[string]bool // import path + "." + identifier
		selected map[string]bool // identifiers after a dot
	}
	var decls []decl
	imported := map[string]bool{}
	for _, f := range mod.files {
		for _, p := range f.imports {
			if p != f.pkg {
				imported[p] = true
			}
		}
		add := func(node ast.Node, owns []own) {
			d := decl{owns: owns, names: map[string]bool{}, selected: map[string]bool{}}
			var visit func(n ast.Node) bool
			visit = func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.SelectorExpr:
					d.selected[n.Sel.Name] = true
					if x, ok := n.X.(*ast.Ident); ok && f.imports[x.Name] != "" {
						d.names[f.imports[x.Name]+"."+n.Sel.Name] = true
					} else {
						ast.Inspect(n.X, visit)
					}
					return false
				case *ast.Ident:
					d.names[f.pkg+"."+n.Name] = true
				}
				return true
			}
			ast.Inspect(node, visit)
			for _, o := range owns {
				delete(d.names, o.ref)
				delete(d.selected, o.method)
			}
			decls = append(decls, d)
		}
		// owner lists the exported names a declaration puts in scope.
		owner := func(names ...*ast.Ident) []own {
			var owns []own
			for _, n := range names {
				if mod.linked[f.pkg] && n.IsExported() {
					owns = append(owns, own{name: short(f.pkg) + "." + n.Name, ref: f.pkg + "." + n.Name})
				}
			}
			return owns
		}
		for _, d := range f.ast.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					add(d, owner(d.Name))
					continue
				}
				var owns []own
				if mod.linked[f.pkg] && d.Name.IsExported() && !stdInterfaceMethods[d.Name.Name] {
					owns = []own{{name: short(f.pkg) + "." + receiverName(d.Recv.List[0].Type) + "." + d.Name.Name, method: d.Name.Name}}
				}
				add(d, owns)
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						add(s, owner(s.Name))
					case *ast.ValueSpec:
						add(s, owner(s.Names...))
					}
				}
			}
		}
	}
	var uncalled []string
	for _, f := range mod.files {
		name := "package " + short(f.pkg)
		if strings.HasPrefix(f.pkg, mod.path+"/internal/") && !imported[f.pkg] && !slices.Contains(uncalled, name) &&
			name != "package e2e" && name != "package cmdtest" {
			uncalled = append(uncalled, name)
		}
	}

	// Flag what nothing live names until nothing more is flagged.
	flagged := map[string]bool{}
	dead := func(d decl) bool {
		return len(d.owns) > 0 && !slices.ContainsFunc(d.owns, func(o own) bool { return !flagged[o.name] })
	}
	for changed := true; changed; {
		changed = false
		names, selected := map[string]bool{}, map[string]bool{}
		for _, d := range decls {
			if !dead(d) {
				maps.Copy(names, d.names)
				maps.Copy(selected, d.selected)
			}
		}
		for _, d := range decls {
			for _, o := range d.owns {
				if !flagged[o.name] && !names[o.ref] && !selected[o.method] {
					flagged[o.name] = true
					changed = true
				}
			}
		}
	}
	for name := range flagged {
		uncalled = append(uncalled, name)
	}
	sort.Strings(uncalled)
	return uncalled, nil
}

// TestFlagsHaveACaller: a flag nobody passes is a knob nobody turns, and
// it keeps the config field it feeds "set" for TestConfigFieldsHaveACaller.
// Every flag a binary under cmd/ defines is passed by a non-test caller
// in the repository — a "-name" or "-name=value" string literal in Go
// outside cmd/ (the benchmark's process harness, internal/e2e,
// internal/cmdtest), or a -name word after the binary's name on a
// command line of a shell script or the Makefile — or is on
// flagAllowlist with the reason it stays. A test or a document does not
// count as a caller. The first case checks the checker.
func TestFlagsHaveACaller(t *testing.T) {
	t.Run("checks_the_checker", func(t *testing.T) {
		root := writeTree(t, map[string]string{
			"go.mod": "module example.com/m\n",
			"cmd/app/main.go": `package main

import "flag"

var _ = "-own" // the binary naming its own flag is no caller

func main() {
	fs := flag.NewFlagSet("app", flag.ContinueOnError)
	var b bool
	fs.String("lit", "", "")
	fs.Int("eq", 0, "")
	fs.BoolVar(&b, "make", false, "")
	fs.String("shell", "", "")
	fs.String("own", "", "")
	fs.String("onlytest", "", "")
	fs.String("unused", "", "")
}
`,
			"cmd/other/main.go":    "package main\n\nimport \"flag\"\n\nfunc main() { flag.String(\"shell\", \"\", \"\") }\n",
			"internal/h/h.go":      "package h\n\nvar Args = []string{\"-lit\", \"x\", \"-eq=1\"}\n",
			"internal/h/h_test.go": "package h\n\nvar _ = \"-onlytest\"\n",
			"scripts/run.sh":       "#!/bin/sh\n./bin/app -shell x # -unused\n",
			"Makefile":             "run:\n\tgo run ./cmd/app \\\n\t\t-make\n",
			"README.md":            "    app -unused\n",
		})
		got, err := uncalledFlags(root)
		if err != nil {
			t.Fatal(err)
		}
		if want := []string{"app -onlytest", "app -own", "app -unused", "other -shell"}; !slices.Equal(got, want) {
			t.Errorf("flagged %v, want %v", got, want)
		}
	})
	got, err := uncalledFlags(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range got {
		if flagAllowlist[f] == "" {
			t.Errorf("%s: no non-test caller passes it; delete the flag, or allowlist it with the reason", f)
		}
	}
	for f := range flagAllowlist {
		if !slices.Contains(got, f) {
			t.Errorf("%s is allowlisted but has a caller (or is gone): drop its entry", f)
		}
	}
}

// flagAllowlist names the flags that stay without a caller in the
// repository, each with its reason.
var flagAllowlist = map[string]string{
	// Deployment: what only the operator of one process knows.
	"waldo-server -follow":      "topology: the primary a replica follows (the cluster harness sets cluster.NodeConfig.Follow in-process)",
	"waldo-server -log-level":   "log verbosity",
	"waldo-server -admin-addr":  "the opt-in admin listener's address",
	"waldo-gateway -log-level":  "log verbosity",
	"waldo-gateway -admin-addr": "the opt-in admin listener's address",
	// Generators run by hand.
	"waldo-wardrive -out":     "the output of a campaign generated by hand",
	"waldo-wardrive -samples": "the size of a campaign generated by hand",
	"waldo-wardrive -seed":    "the seed of a campaign generated by hand",
	"waldo-bench -seed":       "the seed of an experiment run by hand",
	"waldo-bench -samples":    "the size of an experiment run by hand",
	"waldo-bench -run":        "the selection of experiments run by hand",
	"waldo-bench -list":       "the selection of experiments run by hand: list them",
}

// uncalledFlags parses the Go module rooted at root (go/parser only) and
// returns, sorted as "binary -name", each flag a binary under cmd/
// defines that no caller passes. A string literal "-name" or
// "-name=value" in a non-test Go file outside cmd/ passes every binary's
// flag of that name; a -name word after a binary's name on a command
// line of a Makefile or a .sh file (a trailing backslash continues the
// line, a # starts a comment) passes that binary's.
func uncalledFlags(root string) ([]string, error) {
	mod, err := parseModule(root)
	if err != nil {
		return nil, err
	}
	flagRE := regexp.MustCompile(`^--?([a-z][a-z0-9-]*)(?:=|$)`)
	defined := map[string][]string{} // binary → its flags
	passed := map[string]bool{}      // "binary -name", or " -name" from Go
	for _, f := range mod.files {
		if bin, ok := strings.CutPrefix(f.pkg, mod.path+"/cmd/"); ok {
			defined[bin] = append(defined[bin], definedFlags(f.ast)...)
			continue
		}
		ast.Inspect(f.ast, func(n ast.Node) bool {
			if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == token.STRING {
				v, _ := strconv.Unquote(lit.Value)
				if m := flagRE.FindStringSubmatch(v); m != nil {
					passed[" -"+m[1]] = true
				}
			}
			return true
		})
	}

	var bins []string
	for bin := range defined {
		bins = append(bins, bin)
	}
	sort.Strings(bins)
	cmdRE := regexp.MustCompile(`(?:^|[\s;&|(/])(` + strings.Join(bins, "|") + `)((?:\s+[^\s;&|]+)*)`)
	commentRE := regexp.MustCompile(`(?:^|\s)#.*$`)
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			switch d.Name() {
			case ".git", ".bench_build", "bin", "testdata":
				return filepath.SkipDir
			}
			return nil
		}
		if d.Name() != "Makefile" && !strings.HasSuffix(path, ".sh") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		line := ""
		for _, raw := range strings.Split(string(src), "\n") {
			if line += raw; strings.HasSuffix(line, "\\") {
				line = strings.TrimSuffix(line, "\\") + " "
				continue
			}
			for _, m := range cmdRE.FindAllStringSubmatch(commentRE.ReplaceAllString(line, ""), -1) {
				for _, arg := range strings.Fields(m[2]) {
					if f := flagRE.FindStringSubmatch(arg); f != nil {
						passed[m[1]+" -"+f[1]] = true
					}
				}
			}
			line = ""
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	var uncalled []string
	for _, bin := range bins {
		for _, name := range defined[bin] {
			if !passed[" -"+name] && !passed[bin+" -"+name] {
				uncalled = append(uncalled, bin+" -"+name)
			}
		}
	}
	sort.Strings(uncalled)
	return uncalled, nil
}
