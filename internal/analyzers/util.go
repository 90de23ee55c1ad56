package analyzers

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
)

// exprString renders an expression for diagnostics.
func exprString(x ast.Expr) string { return types.ExprString(x) }

// basicLitString unquotes a string literal.
func basicLitString(lit *ast.BasicLit) (string, error) {
	if lit.Kind != token.STRING {
		return "", fmt.Errorf("not a string literal")
	}
	return strconv.Unquote(lit.Value)
}
