package checks

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// The docs carry the design, so this file's tests hold them to the code:
// every test they cite exists, every section they quote is a heading,
// README's Layout names every package, the Makefile runs every fuzzer and
// every make target they cite, and DESIGN.md stays within its budget.

// repoRoot is the module root, relative to this package.
const repoRoot = "../../.."

// citingDocs are the documents whose test and make-target citations are
// checked.
var citingDocs = []string{"DESIGN.md", "README.md", ".claude/skills/verify/SKILL.md"}

// designLineBudget bounds DESIGN.md. Raising it is a deliberate edit.
const designLineBudget = 1100

// goFiles lists, relative to root and slash-separated, every .go file of
// the module outside testdata and hidden directories.
func goFiles(root string) ([]string, error) {
	var files []string
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && p != root && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(p, ".go") {
			return nil
		}
		rel, err := filepath.Rel(root, p)
		files = append(files, filepath.ToSlash(rel))
		return err
	})
	return files, err
}

// testFuncs maps every Test/Fuzz/Benchmark function declared in one of
// files' _test.go files to the directories that declare it.
func testFuncs(root string, files []string) (map[string][]string, error) {
	funcs := map[string][]string{}
	fset := token.NewFileSet()
	for _, name := range files {
		if !strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(root, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil && testNameRE.MatchString(fn.Name.Name) {
				funcs[fn.Name.Name] = append(funcs[fn.Name.Name], path.Dir(name))
			}
		}
	}
	return funcs, nil
}

// testNameRE is a whole test, fuzz or benchmark function name: after the
// prefix comes anything but a lower-case letter, as go test requires.
var testNameRE = regexp.MustCompile(`^(Test|Fuzz|Benchmark)([^a-z].*)?$`)

// citedNameRE finds a cited name; a trailing * marks it as a prefix.
var citedNameRE = regexp.MustCompile(`(?:^|[^A-Za-z0-9_])((?:Test|Fuzz|Benchmark)[A-Z0-9_][A-Za-z0-9_]*)(\*?)`)

// patternFlags are the go test flags whose argument is a name pattern.
var patternFlags = map[string]bool{"-run": true, "-fuzz": true, "-bench": true}

var wordRE = regexp.MustCompile(`\S+`)

// unresolvedCitations lists every test name doc cites that no function in
// funcs matches. A name must match exactly, except inside the argument of
// a -run/-fuzz/-bench flag (which may follow its flag on the next line)
// or before a trailing *, where it may be a prefix. Names are read line by
// line, so one wrapped across lines is reported as its fragment.
func unresolvedCitations(doc string, funcs map[string][]string) []string {
	var out []string
	patternNext := false
	for i, line := range strings.Split(doc, "\n") {
		var patterns [][]int
		for _, f := range wordRE.FindAllStringIndex(line, -1) {
			if patternNext {
				patterns = append(patterns, f)
			}
			patternNext = patternFlags[strings.Trim(line[f[0]:f[1]], "`")]
		}
		for _, m := range citedNameRE.FindAllStringSubmatchIndex(line, -1) {
			name := line[m[2]:m[3]]
			prefix := m[5] > m[4] || slices.ContainsFunc(patterns, func(p []int) bool {
				return p[0] <= m[2] && m[3] <= p[1]
			})
			if !resolves(name, prefix, funcs) {
				out = append(out, fmt.Sprintf("line %d: %s", i+1, name))
			}
		}
	}
	return out
}

func resolves(name string, prefix bool, funcs map[string][]string) bool {
	if _, ok := funcs[name]; ok {
		return true
	}
	for f := range funcs {
		if prefix && strings.HasPrefix(f, name) {
			return true
		}
	}
	return false
}

// headingNames returns the names a DESIGN.md heading may be cited by: its
// ##/### text whole, and that text cut before its first colon or its
// first parenthesis.
func headingNames(design string) map[string]bool {
	names := map[string]bool{}
	for _, line := range strings.Split(design, "\n") {
		h, ok := strings.CutPrefix(line, "## ")
		if !ok {
			h, ok = strings.CutPrefix(line, "### ")
		}
		if !ok {
			continue
		}
		names[h] = true
		for _, sep := range []string{":", " ("} {
			if i := strings.Index(h, sep); i >= 0 {
				names[h[:i]] = true
			}
		}
	}
	return names
}

var (
	quotedRE = regexp.MustCompile(`"([^"]+)"`)
	// clauseEndRE ends the clause a DESIGN.md mention opens.
	clauseEndRE = regexp.MustCompile(`\)|\.(\s|$)`)
	// seeRE is DESIGN.md's own way of citing one of its sections.
	seeRE = regexp.MustCompile(`\bsee\s+"([^"]+)"`)
)

// sectionRefs returns the DESIGN.md sections text cites by quoted name,
// a name wrapped across lines read as one: in DESIGN.md itself (self), a
// quote after "see"; elsewhere, every quote between a mention of
// DESIGN.md and the end of its parenthesis or sentence.
func sectionRefs(text string, self bool) []string {
	var refs []string
	add := func(ms [][]string) {
		for _, m := range ms {
			refs = append(refs, strings.Join(strings.Fields(m[1]), " "))
		}
	}
	if self {
		add(seeRE.FindAllStringSubmatch(text, -1))
		return refs
	}
	for rest := text; ; {
		_, after, ok := strings.Cut(rest, "DESIGN.md")
		if !ok {
			return refs
		}
		rest = after
		clause := rest
		if end := clauseEndRE.FindStringIndex(rest); end != nil {
			clause = rest[:end[0]]
		}
		add(quotedRE.FindAllStringSubmatch(clause, -1))
	}
}

// unresolvedSectionRefs lists the section names text cites that are not a
// heading of design.
func unresolvedSectionRefs(text string, self bool, design string) []string {
	headings := headingNames(design)
	var out []string
	for _, ref := range sectionRefs(text, self) {
		if !headings[ref] {
			out = append(out, fmt.Sprintf("%q", ref))
		}
	}
	return out
}

// packageDirs lists every directory under internal/ and cmd/ that holds
// one of files' non-test .go files.
func packageDirs(files []string) []string {
	var dirs []string
	for _, f := range files {
		dir := path.Dir(f)
		if (strings.HasPrefix(f, "internal/") || strings.HasPrefix(f, "cmd/")) && !strings.HasSuffix(f, "_test.go") && !slices.Contains(dirs, dir) {
			dirs = append(dirs, dir)
		}
	}
	return dirs
}

var codeSpanRE = regexp.MustCompile("`([^`]+)`")

// layoutOmissions lists the dirs that README's Layout section does not
// name in backticks.
func layoutOmissions(readme string, dirs []string) []string {
	_, layout, _ := strings.Cut(readme, "\n## Layout\n")
	layout, _, _ = strings.Cut(layout, "\n## ")
	named := map[string]bool{}
	for _, m := range codeSpanRE.FindAllStringSubmatch(layout, -1) {
		named[m[1]] = true
	}
	var out []string
	for _, d := range dirs {
		if !named[d] {
			out = append(out, d)
		}
	}
	return out
}

var (
	targetRE   = regexp.MustCompile(`^[a-z][a-z0-9-]*$`)
	fuzzLineRE = regexp.MustCompile(`\$\(GO\) test \./(\S+) .*-fuzz '\^(Fuzz\w+)\$\$'`)
)

// makeTargets returns the targets a Makefile defines and, for each fuzzer
// its fuzz target runs, the package directory it runs it in.
func makeTargets(makefile string) (targets map[string]bool, fuzzed map[string][]string) {
	targets, fuzzed = map[string]bool{}, map[string][]string{}
	inFuzz := false
	for _, line := range strings.Split(makefile, "\n") {
		if name, _, ok := strings.Cut(line, ":"); ok && targetRE.MatchString(name) && !strings.HasPrefix(line[len(name):], ":=") {
			targets[name] = true
			inFuzz = name == "fuzz"
			continue
		}
		if !strings.HasPrefix(line, "\t") {
			inFuzz = false
		}
		if m := fuzzLineRE.FindStringSubmatch(line); inFuzz && m != nil {
			fuzzed[m[2]] = append(fuzzed[m[2]], m[1])
		}
	}
	return targets, fuzzed
}

// unfuzzed lists every fuzzer in funcs whose package the Makefile's fuzz
// target does not run it in, and every fuzz line naming no such fuzzer.
func unfuzzed(makefile string, funcs map[string][]string) []string {
	_, fuzzed := makeTargets(makefile)
	var out []string
	for name, dirs := range funcs {
		for _, d := range dirs {
			if strings.HasPrefix(name, "Fuzz") && !slices.Contains(fuzzed[name], d) {
				out = append(out, fmt.Sprintf("%s in ./%s is not in make fuzz", name, d))
			}
		}
	}
	for name, dirs := range fuzzed {
		for _, d := range dirs {
			if !slices.Contains(funcs[name], d) {
				out = append(out, fmt.Sprintf("make fuzz runs %s in ./%s, which has no such fuzzer", name, d))
			}
		}
	}
	slices.Sort(out)
	return out
}

// codeText returns doc's code: fenced blocks and inline spans, which may
// wrap across lines.
func codeText(doc string) string {
	var b strings.Builder
	fenced, inline := false, false
	for _, line := range strings.Split(doc, "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			fenced, inline = !fenced, false
			continue
		}
		if fenced {
			b.WriteString(line + "\n")
			continue
		}
		for i, part := range strings.Split(line, "`") {
			if i > 0 {
				inline = !inline
			}
			if inline {
				b.WriteString(part + "\n")
			}
		}
	}
	return b.String()
}

var makeCallRE = regexp.MustCompile(`\bmake ([a-z][a-z0-9-]*)`)

// missingMakeTargets lists every `make <target>` in doc's code that the
// Makefile does not define.
func missingMakeTargets(doc, makefile string) []string {
	targets, _ := makeTargets(makefile)
	var out []string
	for _, m := range makeCallRE.FindAllStringSubmatch(codeText(doc), -1) {
		if !targets[m[1]] {
			out = append(out, "make "+m[1])
		}
	}
	return out
}

func readRepoFile(t *testing.T, name string) string {
	t.Helper()
	b, err := os.ReadFile(filepath.Join(repoRoot, name))
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// moduleTestFuncs is testFuncs over the whole module.
func moduleTestFuncs(t *testing.T) map[string][]string {
	t.Helper()
	files, err := goFiles(repoRoot)
	if err != nil {
		t.Fatal(err)
	}
	funcs, err := testFuncs(repoRoot, files)
	if err != nil {
		t.Fatal(err)
	}
	return funcs
}

// TestDocsCiteExistingTests: every test, fuzzer and benchmark the docs
// name is a function in the module.
func TestDocsCiteExistingTests(t *testing.T) {
	funcs := moduleTestFuncs(t)
	for _, doc := range citingDocs {
		for _, miss := range unresolvedCitations(readRepoFile(t, doc), funcs) {
			t.Errorf("%s %s: no such test function", doc, miss)
		}
	}
}

// goComments returns the text of a Go file's comments.
func goComments(t *testing.T, name, src string) string {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), name, src, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, c := range f.Comments {
		b.WriteString(c.Text())
	}
	return b.String()
}

// TestDesignSectionReferencesResolve: every DESIGN.md section cited by
// quoted name — from the docs, the Makefile or a Go comment — is a
// heading of DESIGN.md.
func TestDesignSectionReferencesResolve(t *testing.T) {
	design := readRepoFile(t, "DESIGN.md")
	files, err := goFiles(repoRoot)
	if err != nil {
		t.Fatal(err)
	}
	files = append(files, "DESIGN.md", "README.md", ".claude/skills/verify/SKILL.md", "Makefile")
	for _, f := range files {
		text := readRepoFile(t, f)
		if strings.HasSuffix(f, ".go") {
			text = goComments(t, f, text)
		}
		for _, ref := range unresolvedSectionRefs(text, f == "DESIGN.md", design) {
			t.Errorf("%s cites DESIGN.md section %s, which is not a heading", f, ref)
		}
	}
}

// TestReadmeLayoutNamesEveryPackage: README's Layout names every package
// directory under internal/ and cmd/.
func TestReadmeLayoutNamesEveryPackage(t *testing.T) {
	files, err := goFiles(repoRoot)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range layoutOmissions(readRepoFile(t, "README.md"), packageDirs(files)) {
		t.Errorf("README.md's Layout does not name `%s`", d)
	}
}

// TestMakefileFuzzesEveryFuzzer: CI's fuzz job is make fuzz, so a fuzzer
// it does not list is never fuzzed.
func TestMakefileFuzzesEveryFuzzer(t *testing.T) {
	for _, p := range unfuzzed(readRepoFile(t, "Makefile"), moduleTestFuncs(t)) {
		t.Error(p)
	}
}

// TestDocsCiteExistingMakeTargets: every make target the docs show is
// defined.
func TestDocsCiteExistingMakeTargets(t *testing.T) {
	makefile := readRepoFile(t, "Makefile")
	for _, doc := range citingDocs {
		for _, m := range missingMakeTargets(readRepoFile(t, doc), makefile) {
			t.Errorf("%s cites `%s`, which the Makefile does not define", doc, m)
		}
	}
}

// TestDesignWithinLineBudget: DESIGN.md describes the code as it is, not
// its history, and cannot regrow unnoticed.
func TestDesignWithinLineBudget(t *testing.T) {
	if n := strings.Count(readRepoFile(t, "DESIGN.md"), "\n"); n > designLineBudget {
		t.Errorf("DESIGN.md is %d lines, over its budget of %d", n, designLineBudget)
	}
}

// TestDocChecksFire: each rule above reports a seeded violation, and
// accepts the spellings it allows.
func TestDocChecksFire(t *testing.T) {
	funcs := map[string][]string{
		"TestAttemptTimeoutFailsTheShard": {"internal/sim/dispatch"},
		"TestWarmCacheRunBitIdentical":    {"internal/sim"},
		"FuzzLaneMatchesPerInstruction":   {"internal/sim"},
		"FuzzDecodeAnswer":                {"internal/sim/dispatch"},
	}
	design := "# DESIGN\n\n## Static-analysis wall (`internal/lint`)\n\n### Partial-result degradation: the `failed_shards` contract\n"
	makefile := "fuzz:\n\t$(GO) test ./internal/sim -run '^$$' -fuzz '^FuzzLaneMatchesPerInstruction$$' -fuzztime $(FUZZTIME)\n\nloc:\n\t@true\n"
	readme := "# r\n\n## Layout\n\n- `internal/sim` — the run layer.\n\n## Build\n\n`internal/rng`\n"
	for _, c := range []struct {
		name string
		got  []string
		want []string
	}{
		{"exact name", unresolvedCitations("`TestWarmCacheRunBitIdentical` pins it", funcs), nil},
		{"bogus name", unresolvedCitations("`TestNoSuchThing` pins it", funcs), []string{"line 1: TestNoSuchThing"}},
		{"prefix in a -run pattern", unresolvedCitations("`go test -run 'TestWarmCache|FuzzLane'`", funcs), nil},
		{"-run pattern on the next line", unresolvedCitations("`go test ./internal/sim -run\n  'TestWarmCache'`", funcs), nil},
		{"trailing *", unresolvedCitations("`TestAttemptTimeout*` pin that path", funcs), nil},
		{"prefix outside a pattern", unresolvedCitations("`TestWarmCache` pins it", funcs), []string{"line 1: TestWarmCache"}},
		{"name wrapped across lines", unresolvedCitations("`TestWarmCacheRun\nBitIdentical`", funcs), []string{"line 1: TestWarmCacheRun"}},
		{"heading quoted by its prefix", unresolvedSectionRefs(`See DESIGN.md ("Partial-result degradation",
"Static-analysis wall") for the contracts.`, false, design), nil},
		{"missing heading", unresolvedSectionRefs(`(DESIGN.md, "Performance envelope") says so.`, false, design), []string{`"Performance envelope"`}},
		{"heading wrapped across lines", unresolvedSectionRefs("as the wall says (see \"Static-analysis\nwall\").", true, design), nil},
		{"missing heading cited from DESIGN.md", unresolvedSectionRefs(`as the plan says (see "The plan").`, true, design), []string{`"The plan"`}},
		{"package missing from Layout", layoutOmissions(readme, []string{"internal/sim", "internal/rng"}), []string{"internal/rng"}},
		{"fuzzer missing from make fuzz", unfuzzed(makefile, funcs), []string{"FuzzDecodeAnswer in ./internal/sim/dispatch is not in make fuzz"}},
		{"missing make target", missingMakeTargets("```sh\nmake loc\n```\nthen `make lcov` to make progress", makefile), []string{"make lcov"}},
	} {
		if !slices.Equal(c.got, c.want) {
			t.Errorf("%s: got %q, want %q", c.name, c.got, c.want)
		}
	}
}
