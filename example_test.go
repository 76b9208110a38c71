package paraleon_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"slices"
	"strings"
	"testing"

	paraleon "repro"
)

// Example is the README's "Minimal library use" snippet: Paraleon tuning
// a small fabric under FB_Hadoop at 40% load for 100 ms of virtual time,
// then the FCT summary of the flows that completed.
func Example() {
	net, _ := paraleon.NewNetwork(paraleon.DefaultNetworkConfig())
	sys, _ := paraleon.Attach(net, paraleon.DefaultSystemConfig())
	sys.Start()
	paraleon.InstallPoisson(net, paraleon.PoissonConfig{
		CDF: paraleon.FBHadoop(), Load: 0.4,
	})
	net.Run(100 * paraleon.Millisecond)
	fmt.Println(paraleon.Summarize(net, net.Completed))
	// Output:
	// {1148 1.577920661080952 7.3103033472803345 17.002787260277774 466.555µs 72.932499ms}
}

// TestReadmeSnippetIsTheExample requires the README's library snippet to
// be Example's body line for line, indentation aside, so the code the
// README shows is the code whose output go test checks.
func TestReadmeSnippetIsTheExample(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, block, ok := strings.Cut(string(readme), "Minimal library use")
	if ok {
		_, block, ok = strings.Cut(block, "```go\n")
	}
	if !ok {
		t.Fatal("README.md has no ```go block under \"Minimal library use\"")
	}
	block, _, ok = strings.Cut(block, "```")
	if !ok {
		t.Fatal("README.md's library snippet is not closed")
	}

	src, err := os.ReadFile("example_test.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "example_test.go", src, 0)
	if err != nil {
		t.Fatal(err)
	}
	i := slices.IndexFunc(f.Decls, func(d ast.Decl) bool {
		fn, ok := d.(*ast.FuncDecl)
		return ok && fn.Name.Name == "Example"
	})
	if i < 0 {
		t.Fatal("example_test.go has no func Example")
	}
	body := f.Decls[i].(*ast.FuncDecl).Body
	code := string(src[fset.Position(body.Lbrace).Offset+1 : fset.Position(body.Rbrace).Offset])
	code, _, _ = strings.Cut(code, "// Output:")

	if got, want := codeLines(block), codeLines(code); !slices.Equal(got, want) {
		t.Errorf("README snippet:\n%s\nExample body:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// codeLines is s's non-blank lines with their indentation trimmed.
func codeLines(s string) []string {
	var out []string
	for _, l := range strings.Split(s, "\n") {
		if l = strings.TrimSpace(l); l != "" {
			out = append(out, l)
		}
	}
	return out
}
