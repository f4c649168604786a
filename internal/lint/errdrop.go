package lint

import (
	"go/ast"
	"go/types"
)

// servingPkgs are the module-relative prefixes of the serving layer:
// the network stack, the multiplexer it fans into, and every
// binary. A silently dropped I/O error here turns a broken peer into a
// wedged session (a deadline that never armed, a reply that never
// flushed) instead of a loud disconnect.
var servingPkgs = []string{
	"internal/stream", "internal/mux", "cmd", "examples",
}

// AnalyzerErrDrop flags discarded errors on the serving layer's I/O
// boundaries:
//
//   - methods on a net.Conn (or any type declared in package net):
//     Read/Write/SetDeadline/SetReadDeadline/SetWriteDeadline — Close is
//     exempt (the deferred best-effort close is the codebase idiom);
//   - Encode/Decode methods (wire encoders/decoders);
//   - Flush methods (buffered writers).
//
// Discarded means the call is its own statement, the error position is
// assigned to _, or the call sits under go/defer.
var AnalyzerErrDrop = &Analyzer{
	Name: "errdrop",
	Doc:  "no discarded errors on net.Conn, Encoder/Decoder, or Flush paths in the serving layer",
	Run:  runErrDrop,
}

func runErrDrop(pass *Pass) {
	if !relPathMatches(pass.Pkg.RelPath, servingPkgs) {
		return
	}
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch s := n.(type) {
			case *ast.ExprStmt:
				checkDroppedCall(pass, s.X, "discarded")
			case *ast.GoStmt:
				checkDroppedCall(pass, s.Call, "discarded by go")
			case *ast.DeferStmt:
				checkDroppedCall(pass, s.Call, "discarded by defer")
			case *ast.AssignStmt:
				checkBlankAssign(pass, s)
			}
			return true
		})
	}
}

// checkDroppedCall reports a statement-level call whose error result
// vanishes.
func checkDroppedCall(pass *Pass, e ast.Expr, how string) {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return
	}
	what := errDropTarget(pass, call)
	if what == "" {
		return
	}
	pass.Reportf(call.Pos(), "%s error %s; a failed %s wedges the session silently — handle or log it", what, how, what)
}

// checkBlankAssign reports x, _ := conn.Write(...) style discards where
// the blank identifier swallows the error result.
func checkBlankAssign(pass *Pass, s *ast.AssignStmt) {
	if len(s.Rhs) != 1 {
		return
	}
	call, ok := ast.Unparen(s.Rhs[0]).(*ast.CallExpr)
	if !ok {
		return
	}
	what := errDropTarget(pass, call)
	if what == "" {
		return
	}
	sig := callSignature(pass.Pkg, call)
	if sig == nil {
		return
	}
	res := sig.Results()
	for i := 0; i < res.Len() && i < len(s.Lhs); i++ {
		if !isErrorType(res.At(i).Type()) {
			continue
		}
		if id, ok := s.Lhs[i].(*ast.Ident); ok && id.Name == "_" {
			pass.Reportf(call.Pos(), "%s error assigned to _; a failed %s wedges the session silently — handle or log it", what, what)
			return
		}
	}
}

// errDropTarget classifies the callee: a non-empty label means the call
// returns an error the serving layer must not drop.
func errDropTarget(pass *Pass, call *ast.CallExpr) string {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	fn, ok := pass.Pkg.Info.Uses[sel.Sel].(*types.Func)
	if !ok {
		return ""
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil || !returnsError(sig) {
		return ""
	}
	name := fn.Name()
	switch name {
	case "Encode", "Decode":
		return recvLabel(sig) + "." + name
	case "Flush":
		return recvLabel(sig) + ".Flush"
	case "Read", "Write", "SetDeadline", "SetReadDeadline", "SetWriteDeadline":
		if recvIsNet(sig) {
			return recvLabel(sig) + "." + name
		}
	}
	return ""
}

// callSignature resolves the called function's signature.
func callSignature(pkg *Package, call *ast.CallExpr) *types.Signature {
	tv, ok := pkg.Info.Types[call.Fun]
	if !ok || tv.Type == nil {
		return nil
	}
	sig, _ := tv.Type.Underlying().(*types.Signature)
	return sig
}

// returnsError reports whether any result is the error type.
func returnsError(sig *types.Signature) bool {
	res := sig.Results()
	for i := 0; i < res.Len(); i++ {
		if isErrorType(res.At(i).Type()) {
			return true
		}
	}
	return false
}

func isErrorType(t types.Type) bool {
	named, ok := t.(*types.Named)
	return ok && named.Obj().Pkg() == nil && named.Obj().Name() == "error"
}

// recvIsNet reports whether the method's receiver type is declared in
// package net (net.Conn and friends, interface or concrete).
func recvIsNet(sig *types.Signature) bool {
	t := sig.Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	p := named.Obj().Pkg()
	return p != nil && p.Path() == "net"
}

// recvLabel names the receiver type for messages.
func recvLabel(sig *types.Signature) string {
	t := sig.Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		if p := named.Obj().Pkg(); p != nil {
			return p.Name() + "." + named.Obj().Name()
		}
		return named.Obj().Name()
	}
	return t.String()
}
