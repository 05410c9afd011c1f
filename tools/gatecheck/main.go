// Command gatecheck fails when a `go test -run` gate selects nothing.
//
// A `-run` pattern whose alternatives match no test still passes: `go
// test` reports "ok" with zero tests run, so renaming or deleting a test
// silently empties the gate that was meant to pin it. gatecheck reads
// every `go test` command in the given files (Makefile recipes and CI
// workflow steps), splits each `-run` pattern into its top-level
// alternatives, and checks with `go test -list` that every alternative
// matches at least one test, example or fuzz target in the packages the
// same command names.
//
// Usage:
//
//	go run ./tools/gatecheck Makefile .github/workflows/ci.yml
//
// It exits non-zero and names each empty alternative with its file and
// line. The conventional `-run=NONE` (benchmark- and fuzz-only commands)
// is exempt.
package main

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"sort"
	"strings"
)

// gate is one `go test` command that carries a -run pattern.
type gate struct {
	file    string
	line    int
	pattern string
	pkgs    []string
}

func main() {
	files := os.Args[1:]
	if len(files) == 0 {
		files = []string{"Makefile"}
	}
	var gates []gate
	for _, f := range files {
		gs, err := parseFile(f)
		if err != nil {
			fmt.Fprintln(os.Stderr, "gatecheck:", err)
			os.Exit(2)
		}
		gates = append(gates, gs...)
	}
	lists := map[string][]string{} // package -> runnable names
	failed := 0
	for _, g := range gates {
		var names []string
		for _, p := range g.pkgs {
			if _, ok := lists[p]; !ok {
				ns, err := listTests(p)
				if err != nil {
					fmt.Fprintf(os.Stderr, "gatecheck: %s:%d: %v\n", g.file, g.line, err)
					os.Exit(2)
				}
				lists[p] = ns
			}
			names = append(names, lists[p]...)
		}
		for _, alt := range emptyAlternatives(g.pattern, names) {
			fmt.Fprintf(os.Stderr, "gatecheck: %s:%d: -run alternative %q matches no test in %s\n",
				g.file, g.line, alt, strings.Join(g.pkgs, " "))
			failed++
		}
	}
	if failed > 0 {
		os.Exit(1)
	}
	fmt.Printf("gatecheck: %d -run gates, every alternative selects a test\n", len(gates))
}

// parseFile extracts the -run gates of every `go test` command in a
// file, joining backslash-continued lines.
func parseFile(path string) ([]gate, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var gates []gate
	sc := bufio.NewScanner(f)
	n, start := 0, 0
	var cmd strings.Builder
	for sc.Scan() {
		n++
		line := sc.Text()
		if cmd.Len() == 0 {
			start = n
		}
		if strings.HasSuffix(line, `\`) {
			cmd.WriteString(strings.TrimSuffix(line, `\`) + " ")
			continue
		}
		cmd.WriteString(line)
		if g, ok := parseCommand(cmd.String()); ok {
			g.file, g.line = path, start
			gates = append(gates, g)
		}
		cmd.Reset()
	}
	return gates, sc.Err()
}

// parseCommand recognizes `go test` (or `$(GO) test`) with a -run flag
// and returns its pattern and package arguments (default ".").
func parseCommand(line string) (gate, bool) {
	toks := splitWords(line)
	i := 0
	for ; i+1 < len(toks); i++ {
		if (toks[i] == "go" || toks[i] == "$(GO)") && toks[i+1] == "test" {
			break
		}
	}
	if i+1 >= len(toks) {
		return gate{}, false
	}
	var g gate
	found := false
	for j := i + 2; j < len(toks); j++ {
		t := toks[j]
		switch {
		case t == "-run" && j+1 < len(toks):
			g.pattern, found = toks[j+1], true
			j++
		case strings.HasPrefix(t, "-run="):
			g.pattern, found = strings.TrimPrefix(t, "-run="), true
		case t == "." || strings.HasPrefix(t, "./"):
			g.pkgs = append(g.pkgs, t)
		}
	}
	if !found || g.pattern == "NONE" {
		return gate{}, false
	}
	if len(g.pkgs) == 0 {
		g.pkgs = []string{"."}
	}
	return g, true
}

// splitWords tokenizes a shell command line, honoring single and double
// quotes (enough for Makefile recipes and workflow run steps).
func splitWords(s string) []string {
	var out []string
	var cur strings.Builder
	inTok := false
	var quote rune
	for _, r := range s {
		switch {
		case quote != 0:
			if r == quote {
				quote = 0
			} else {
				cur.WriteRune(r)
			}
		case r == '\'' || r == '"':
			quote, inTok = r, true
		case r == ' ' || r == '\t':
			if inTok {
				out = append(out, cur.String())
				cur.Reset()
				inTok = false
			}
		default:
			cur.WriteRune(r)
			inTok = true
		}
	}
	if inTok {
		out = append(out, cur.String())
	}
	return out
}

// alternatives splits the top level of a -run pattern (the part before
// any subtest '/') at '|' outside parentheses and brackets.
func alternatives(pattern string) []string {
	var out []string
	depth, start := 0, 0
	for i := 0; i < len(pattern); i++ {
		switch pattern[i] {
		case '\\':
			i++
		case '(', '[':
			depth++
		case ')', ']':
			depth--
		case '/':
			if depth == 0 {
				return append(out, pattern[start:i])
			}
		case '|':
			if depth == 0 {
				out = append(out, pattern[start:i])
				start = i + 1
			}
		}
	}
	return append(out, pattern[start:])
}

// emptyAlternatives returns the alternatives of pattern that match none
// of names (an invalid regexp counts as empty).
func emptyAlternatives(pattern string, names []string) []string {
	var empty []string
	for _, alt := range alternatives(pattern) {
		re, err := regexp.Compile(alt)
		hit := false
		for _, n := range names {
			if err == nil && re.MatchString(n) {
				hit = true
				break
			}
		}
		if !hit {
			empty = append(empty, alt)
		}
	}
	return empty
}

var runnable = regexp.MustCompile(`^(Test|Example|Fuzz)\w*$`)

// listTests returns the names -run can select in one package.
func listTests(pkg string) ([]string, error) {
	out, err := exec.Command("go", "test", "-list", ".", pkg).CombinedOutput()
	if err != nil {
		return nil, fmt.Errorf("go test -list %s: %v\n%s", pkg, err, out)
	}
	var names []string
	for _, l := range strings.Split(string(out), "\n") {
		if runnable.MatchString(l) {
			names = append(names, l)
		}
	}
	sort.Strings(names)
	return names, nil
}
