//! Recursive-descent parser for the OpenQASM 2.0 subset.

use super::lexer::{tokenize, Token, TokenKind};
use crate::circuit::{Circuit, CircuitError, Operation, Qubit};
use crate::gate::{OneQubitGate, TwoQubitGate};
use std::fmt;

/// Error produced while parsing OpenQASM source.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QasmError {
    line: u32,
    message: String,
}

impl QasmError {
    fn new(line: u32, message: impl Into<String>) -> Self {
        QasmError {
            line,
            message: message.into(),
        }
    }

    /// 1-based source line of the error.
    pub fn line(&self) -> u32 {
        self.line
    }

    /// Human-readable description.
    pub fn message(&self) -> &str {
        &self.message
    }
}

impl fmt::Display for QasmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "qasm parse error at line {}: {}",
            self.line, self.message
        )
    }
}

impl std::error::Error for QasmError {}

/// Deepest nesting of parentheses and unary minus an angle expression
/// may have. Each level is a recursive call, so a bound keeps a
/// pathological file from overflowing the stack; real angles nest a few
/// levels at most.
const MAX_EXPRESSION_DEPTH: u32 = 256;

/// Most entries one program may expand to: its operations plus the
/// qubits its barriers list. A register broadcast makes one operation
/// per qubit, so without a bound `qreg q[4294967295]; h q;` would grow
/// the operation list toward 4·10⁹ entries and abort on allocation;
/// the paper's largest benchmark is tens of thousands of operations.
const MAX_OPERATIONS: usize = 1 << 22;

/// One quantum register: flattened base offset and size.
#[derive(Debug, Clone, Copy)]
struct Register {
    base: u32,
    size: u32,
}

/// Insertion-ordered register table.
///
/// QASM files declare a handful of registers, so a flat `Vec` beats a
/// hash map on lookup — and, unlike a hash map, it iterates in
/// declaration order, making every duplicate-register and lookup error
/// (and the creg base computation) deterministic by construction.
#[derive(Debug, Default)]
struct RegisterTable {
    entries: Vec<(String, Register)>,
}

impl RegisterTable {
    fn new() -> Self {
        RegisterTable::default()
    }

    fn get(&self, name: &str) -> Option<&Register> {
        self.entries.iter().find(|(n, _)| n == name).map(|(_, r)| r)
    }

    fn contains_key(&self, name: &str) -> bool {
        self.get(name).is_some()
    }

    /// Inserts `reg` under `name`, replacing any existing entry in
    /// place (its declaration-order slot is kept).
    fn insert(&mut self, name: String, reg: Register) {
        match self.entries.iter_mut().find(|(n, _)| *n == name) {
            Some(entry) => entry.1 = reg,
            None => self.entries.push((name, reg)),
        }
    }

    /// Registers in declaration order.
    fn values(&self) -> impl Iterator<Item = &Register> {
        self.entries.iter().map(|(_, r)| r)
    }
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    /// 1-based line on which the source text ends, from the lexer:
    /// unexpected-EOF errors are reported here, not at the last token
    /// (which may sit many lines earlier in a truncated file).
    final_line: u32,
    qregs: RegisterTable,
    cregs: RegisterTable,
    num_qubits: u32,
    /// Nesting depth of the angle expression being parsed.
    depth: u32,
    /// Entries expanded so far, bounded by [`MAX_OPERATIONS`].
    expanded: usize,
}

/// A parsed operand: a single qubit or a whole register (for broadcast).
#[derive(Debug, Clone, Copy)]
enum Operand {
    Single(Qubit),
    Whole(Register),
}

impl Operand {
    fn len(&self) -> u32 {
        match self {
            Operand::Single(_) => 1,
            Operand::Whole(r) => r.size,
        }
    }

    fn nth(&self, i: u32) -> Qubit {
        match self {
            Operand::Single(q) => *q,
            Operand::Whole(r) => Qubit(r.base + i),
        }
    }
}

/// Parses OpenQASM 2.0 source into a [`Circuit`].
///
/// # Errors
///
/// Returns a [`QasmError`] with a line number for lexical errors, syntax
/// errors, references to undeclared registers, out-of-range indices and
/// unsupported constructs.
pub fn parse(src: &str) -> Result<Circuit, QasmError> {
    let (tokens, final_line) =
        tokenize(src).map_err(|(line, message)| QasmError::new(line, message))?;
    let mut parser = Parser {
        tokens,
        pos: 0,
        final_line,
        qregs: RegisterTable::new(),
        cregs: RegisterTable::new(),
        num_qubits: 0,
        depth: 0,
        expanded: 0,
    };
    parser.program()
}

impl Parser {
    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    /// Line for an error at the current position: the next token's
    /// line, or — when the token stream is exhausted — the true last
    /// line of the source as counted by the lexer.
    fn line(&self) -> u32 {
        self.tokens
            .get(self.pos)
            .map(|t| t.line)
            .unwrap_or(self.final_line)
    }

    /// Counts `n` more expanded entries against [`MAX_OPERATIONS`]
    /// before they are pushed, failing at the statement's `line`.
    fn expand_by(&mut self, n: u32, line: u32) -> Result<(), QasmError> {
        match self.expanded.checked_add(n as usize) {
            Some(total) if total <= MAX_OPERATIONS => {
                self.expanded = total;
                Ok(())
            }
            _ => Err(QasmError::new(
                line,
                format!("program expands to more than {MAX_OPERATIONS} operations"),
            )),
        }
    }

    fn bump(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn expect(&mut self, kind: &TokenKind) -> Result<(), QasmError> {
        match self.bump() {
            Some(t) if &t.kind == kind => Ok(()),
            Some(t) => Err(QasmError::new(
                t.line,
                format!("expected {kind}, found {}", t.kind),
            )),
            None => Err(QasmError::new(
                self.line(),
                format!("expected {kind}, found end of input"),
            )),
        }
    }

    fn expect_ident(&mut self) -> Result<(String, u32), QasmError> {
        match self.bump() {
            Some(Token {
                kind: TokenKind::Ident(s),
                line,
            }) => Ok((s, line)),
            Some(t) => Err(QasmError::new(
                t.line,
                format!("expected identifier, found {}", t.kind),
            )),
            None => Err(QasmError::new(
                self.line(),
                "expected identifier, found end of input",
            )),
        }
    }

    fn eat(&mut self, kind: &TokenKind) -> bool {
        if self.peek().map(|t| &t.kind) == Some(kind) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn program(&mut self) -> Result<Circuit, QasmError> {
        // Header: OPENQASM 2.0;
        let (kw, line) = self.expect_ident()?;
        if kw != "OPENQASM" {
            return Err(QasmError::new(line, "file must start with `OPENQASM 2.0;`"));
        }
        match self.bump() {
            Some(Token {
                kind: TokenKind::Number(v),
                line,
            }) => {
                if (v - 2.0).abs() > 1e-9 {
                    return Err(QasmError::new(
                        line,
                        format!("unsupported OPENQASM version {v}"),
                    ));
                }
            }
            _ => {
                return Err(QasmError::new(
                    line,
                    "expected version number after OPENQASM",
                ))
            }
        }
        self.expect(&TokenKind::Semicolon)?;

        let mut ops: Vec<Operation> = Vec::new();
        while let Some(tok) = self.peek().cloned() {
            match tok.kind {
                TokenKind::Ident(ref name) => match name.as_str() {
                    "include" => {
                        self.bump();
                        match self.bump() {
                            Some(Token {
                                kind: TokenKind::Str(_),
                                ..
                            }) => {}
                            _ => {
                                return Err(QasmError::new(
                                    tok.line,
                                    "expected string after include",
                                ))
                            }
                        }
                        self.expect(&TokenKind::Semicolon)?;
                    }
                    "qreg" => self.register_decl(true)?,
                    "creg" => self.register_decl(false)?,
                    "measure" => self.measure(&mut ops)?,
                    "barrier" => self.barrier(&mut ops)?,
                    "gate" | "opaque" | "if" | "reset" => {
                        return Err(QasmError::new(
                            tok.line,
                            format!("`{name}` statements are not supported by this subset"),
                        ));
                    }
                    _ => self.gate_statement(&mut ops)?,
                },
                other => {
                    return Err(QasmError::new(
                        tok.line,
                        format!("expected statement, found {other}"),
                    ))
                }
            }
        }

        // Every operand was range-checked and every two-qubit gate's
        // operands compared where they were parsed, so the circuit is
        // valid by construction.
        let mut circuit = Circuit::new("qasm", self.num_qubits);
        circuit.extend(ops);
        Ok(circuit)
    }

    fn register_decl(&mut self, quantum: bool) -> Result<(), QasmError> {
        self.bump(); // qreg/creg
        let (name, line) = self.expect_ident()?;
        self.expect(&TokenKind::LBracket)?;
        let size = match self.bump() {
            Some(Token {
                kind: TokenKind::Number(v),
                ..
            }) if v >= 1.0 && v.fract() == 0.0 => v as u32,
            _ => {
                return Err(QasmError::new(
                    line,
                    "register size must be a positive integer",
                ))
            }
        };
        self.expect(&TokenKind::RBracket)?;
        self.expect(&TokenKind::Semicolon)?;
        let too_wide = || {
            let bits = if quantum { "qubits" } else { "classical bits" };
            QasmError::new(
                line,
                format!(
                    "register `{name}[{size}]` takes the program past {} {bits}",
                    u32::MAX
                ),
            )
        };
        if quantum {
            if self.qregs.contains_key(&name) {
                return Err(QasmError::new(line, format!("duplicate qreg `{name}`")));
            }
            let base = self.num_qubits;
            self.num_qubits = base.checked_add(size).ok_or_else(too_wide)?;
            self.qregs.insert(name, Register { base, size });
        } else {
            // Every stored creg passed this check, so `base + size` of
            // each fits.
            let base = self
                .cregs
                .values()
                .map(|r| r.base + r.size)
                .max()
                .unwrap_or(0);
            base.checked_add(size).ok_or_else(too_wide)?;
            self.cregs.insert(name, Register { base, size });
        }
        Ok(())
    }

    fn operand(&mut self) -> Result<Operand, QasmError> {
        let (name, line) = self.expect_ident()?;
        let reg = *self
            .qregs
            .get(&name)
            .ok_or_else(|| QasmError::new(line, format!("undeclared quantum register `{name}`")))?;
        if self.eat(&TokenKind::LBracket) {
            let idx = match self.bump() {
                Some(Token {
                    kind: TokenKind::Number(v),
                    ..
                }) if v >= 0.0 && v.fract() == 0.0 => v as u32,
                _ => {
                    return Err(QasmError::new(
                        line,
                        "register index must be a non-negative integer",
                    ))
                }
            };
            self.expect(&TokenKind::RBracket)?;
            if idx >= reg.size {
                return Err(QasmError::new(
                    line,
                    format!("index {idx} out of range for `{name}[{}]`", reg.size),
                ));
            }
            Ok(Operand::Single(Qubit(reg.base + idx)))
        } else {
            Ok(Operand::Whole(reg))
        }
    }

    /// Classical operand of `measure`; the target is validated but its
    /// identity is not stored (the IR has no classical registers).
    fn classical_operand(&mut self) -> Result<(), QasmError> {
        let (name, line) = self.expect_ident()?;
        let reg = *self.cregs.get(&name).ok_or_else(|| {
            QasmError::new(line, format!("undeclared classical register `{name}`"))
        })?;
        if self.eat(&TokenKind::LBracket) {
            let idx = match self.bump() {
                Some(Token {
                    kind: TokenKind::Number(v),
                    ..
                }) if v >= 0.0 && v.fract() == 0.0 => v as u32,
                _ => {
                    return Err(QasmError::new(
                        line,
                        "register index must be a non-negative integer",
                    ))
                }
            };
            self.expect(&TokenKind::RBracket)?;
            if idx >= reg.size {
                return Err(QasmError::new(
                    line,
                    format!("index {idx} out of range for `{name}[{}]`", reg.size),
                ));
            }
        }
        Ok(())
    }

    fn measure(&mut self, ops: &mut Vec<Operation>) -> Result<(), QasmError> {
        let line = self.line();
        self.bump(); // measure
        let src = self.operand()?;
        self.expect(&TokenKind::Arrow)?;
        self.classical_operand()?;
        self.expect(&TokenKind::Semicolon)?;
        self.expand_by(src.len(), line)?;
        for i in 0..src.len() {
            ops.push(Operation::Measure { q: src.nth(i) });
        }
        Ok(())
    }

    fn barrier(&mut self, ops: &mut Vec<Operation>) -> Result<(), QasmError> {
        let line = self.line();
        self.bump(); // barrier
        self.expand_by(1, line)?;
        let mut qs = Vec::new();
        loop {
            let opnd = self.operand()?;
            self.expand_by(opnd.len(), line)?;
            for i in 0..opnd.len() {
                qs.push(opnd.nth(i));
            }
            if !self.eat(&TokenKind::Comma) {
                break;
            }
        }
        self.expect(&TokenKind::Semicolon)?;
        ops.push(Operation::Barrier { qs });
        Ok(())
    }

    fn gate_statement(&mut self, ops: &mut Vec<Operation>) -> Result<(), QasmError> {
        let (name, line) = self.expect_ident()?;
        let mut params = Vec::new();
        if self.eat(&TokenKind::LParen) {
            loop {
                params.push(self.expression()?);
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
            }
            self.expect(&TokenKind::RParen)?;
        }
        let mut operands = Vec::new();
        loop {
            operands.push(self.operand()?);
            if !self.eat(&TokenKind::Comma) {
                break;
            }
        }
        self.expect(&TokenKind::Semicolon)?;

        let expect_params = |n: usize| -> Result<(), QasmError> {
            if params.len() == n {
                Ok(())
            } else {
                Err(QasmError::new(
                    line,
                    format!(
                        "gate `{name}` expects {n} parameter(s), got {}",
                        params.len()
                    ),
                ))
            }
        };

        let one_q: Option<OneQubitGate> = match name.as_str() {
            "h" => Some(OneQubitGate::H),
            "x" => Some(OneQubitGate::X),
            "y" => Some(OneQubitGate::Y),
            "z" => Some(OneQubitGate::Z),
            "s" => Some(OneQubitGate::S),
            "sdg" => Some(OneQubitGate::Sdg),
            "t" => Some(OneQubitGate::T),
            "tdg" => Some(OneQubitGate::Tdg),
            "sx" => Some(OneQubitGate::SqrtX),
            "sy" => Some(OneQubitGate::SqrtY),
            "sw" => Some(OneQubitGate::SqrtW),
            "rx" => {
                expect_params(1)?;
                Some(OneQubitGate::Rx(params[0]))
            }
            "ry" => {
                expect_params(1)?;
                Some(OneQubitGate::Ry(params[0]))
            }
            "rz" => {
                expect_params(1)?;
                Some(OneQubitGate::Rz(params[0]))
            }
            "u1" | "p" => {
                expect_params(1)?;
                Some(OneQubitGate::Phase(params[0]))
            }
            _ => None,
        };
        if let Some(gate) = one_q {
            if gate.angle().is_none() {
                expect_params(0)?;
            }
            if operands.len() != 1 {
                return Err(QasmError::new(
                    line,
                    format!("gate `{name}` expects 1 operand, got {}", operands.len()),
                ));
            }
            self.expand_by(operands[0].len(), line)?;
            for i in 0..operands[0].len() {
                ops.push(Operation::OneQubit {
                    gate,
                    q: operands[0].nth(i),
                });
            }
            return Ok(());
        }

        let two_q = match name.as_str() {
            "cx" | "CX" => Some(TwoQubitGate::Cx),
            "cz" => Some(TwoQubitGate::Cz),
            "swap" => Some(TwoQubitGate::Swap),
            "ms" => Some(TwoQubitGate::Ms),
            _ => None,
        };
        if let Some(gate) = two_q {
            expect_params(0)?;
            if operands.len() != 2 {
                return Err(QasmError::new(
                    line,
                    format!("gate `{name}` expects 2 operands, got {}", operands.len()),
                ));
            }
            let (a, b) = (operands[0], operands[1]);
            let broadcast = a.len().max(b.len());
            if (a.len() != 1 && a.len() != broadcast) || (b.len() != 1 && b.len() != broadcast) {
                return Err(QasmError::new(
                    line,
                    "mismatched register sizes in broadcast",
                ));
            }
            self.expand_by(broadcast, line)?;
            for i in 0..broadcast {
                let qa = a.nth(if a.len() == 1 { 0 } else { i });
                let qb = b.nth(if b.len() == 1 { 0 } else { i });
                if qa == qb {
                    let e = CircuitError::DuplicateOperand { q: qa };
                    return Err(QasmError::new(line, e.to_string()));
                }
                ops.push(Operation::TwoQubit { gate, a: qa, b: qb });
            }
            return Ok(());
        }

        Err(QasmError::new(line, format!("unknown gate `{name}`")))
    }

    // Expression grammar: expr := term (('+'|'-') term)*;
    //                     term := factor (('*'|'/') factor)*;
    //                     factor := NUMBER | 'pi' | '-' factor | '(' expr ')'
    fn expression(&mut self) -> Result<f64, QasmError> {
        let mut value = self.term()?;
        loop {
            if self.eat(&TokenKind::Plus) {
                value += self.term()?;
            } else if self.eat(&TokenKind::Minus) {
                value -= self.term()?;
            } else {
                return Ok(value);
            }
        }
    }

    fn term(&mut self) -> Result<f64, QasmError> {
        let mut value = self.factor()?;
        loop {
            if self.eat(&TokenKind::Star) {
                value *= self.factor()?;
            } else if self.eat(&TokenKind::Slash) {
                let rhs = self.factor()?;
                if rhs == 0.0 {
                    return Err(QasmError::new(
                        self.line(),
                        "division by zero in angle expression",
                    ));
                }
                value /= rhs;
            } else {
                return Ok(value);
            }
        }
    }

    /// Runs `parse` one expression level deeper than the current one,
    /// for the `-` or `(` token on `line`; refuses to go past
    /// [`MAX_EXPRESSION_DEPTH`].
    fn nested(
        &mut self,
        line: u32,
        parse: impl FnOnce(&mut Self) -> Result<f64, QasmError>,
    ) -> Result<f64, QasmError> {
        if self.depth == MAX_EXPRESSION_DEPTH {
            return Err(QasmError::new(
                line,
                format!("angle expression nests deeper than {MAX_EXPRESSION_DEPTH} levels"),
            ));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    /// The rest of a parenthesized expression, after its `(`.
    fn parenthesized(&mut self) -> Result<f64, QasmError> {
        let v = self.expression()?;
        self.expect(&TokenKind::RParen)?;
        Ok(v)
    }

    fn factor(&mut self) -> Result<f64, QasmError> {
        match self.bump() {
            Some(Token {
                kind: TokenKind::Number(v),
                ..
            }) => Ok(v),
            Some(Token {
                kind: TokenKind::Ident(s),
                line,
            }) => {
                if s == "pi" {
                    Ok(std::f64::consts::PI)
                } else {
                    Err(QasmError::new(
                        line,
                        format!("unknown symbol `{s}` in expression"),
                    ))
                }
            }
            Some(Token {
                kind: TokenKind::Minus,
                line,
            }) => Ok(-self.nested(line, Self::factor)?),
            Some(Token {
                kind: TokenKind::LParen,
                line,
            }) => self.nested(line, Self::parenthesized),
            Some(t) => Err(QasmError::new(
                t.line,
                format!("expected expression, found {}", t.kind),
            )),
            None => Err(QasmError::new(
                self.line(),
                "expected expression, found end of input",
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const HEADER: &str = "OPENQASM 2.0;\ninclude \"qelib1.inc\";\n";

    fn parse_body(body: &str) -> Result<Circuit, QasmError> {
        parse(&format!("{HEADER}{body}"))
    }

    #[test]
    fn parses_bell_pair() {
        let c = parse_body("qreg q[2]; creg c[2]; h q[0]; cx q[0], q[1]; measure q -> c;").unwrap();
        assert_eq!(c.num_qubits(), 2);
        assert_eq!(c.two_qubit_gate_count(), 1);
        assert_eq!(c.measure_count(), 2);
    }

    #[test]
    fn angle_expressions_evaluate() {
        let c = parse_body("qreg q[1]; rz(pi/4) q[0]; rz(-pi) q[0]; rz(2*(1+1)) q[0];").unwrap();
        let angles: Vec<f64> = c
            .iter()
            .filter_map(|op| match op {
                Operation::OneQubit { gate, .. } => gate.angle(),
                _ => None,
            })
            .collect();
        assert!((angles[0] - std::f64::consts::FRAC_PI_4).abs() < 1e-12);
        assert!((angles[1] + std::f64::consts::PI).abs() < 1e-12);
        assert!((angles[2] - 4.0).abs() < 1e-12);
    }

    #[test]
    fn register_broadcast_expands() {
        let c = parse_body("qreg q[3]; h q;").unwrap();
        assert_eq!(c.one_qubit_gate_count(), 3);
    }

    #[test]
    fn multiple_qregs_flatten_in_order() {
        let c = parse_body("qreg a[2]; qreg b[2]; cx a[1], b[0];").unwrap();
        assert_eq!(c.num_qubits(), 4);
        match &c.operations()[0] {
            Operation::TwoQubit { a, b, .. } => {
                assert_eq!((a.0, b.0), (1, 2));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn undeclared_register_is_an_error() {
        let err = parse_body("h nope[0];").unwrap_err();
        assert!(err.message().contains("undeclared"));
    }

    #[test]
    fn out_of_range_index_is_an_error() {
        let err = parse_body("qreg q[2]; h q[5];").unwrap_err();
        assert!(err.message().contains("out of range"));
    }

    #[test]
    fn unsupported_statement_is_reported() {
        let err = parse_body("opaque foo a;").unwrap_err();
        assert!(err.message().contains("not supported"));
        // `gate` bodies contain `{`, rejected already by the lexer.
        assert!(parse_body("gate foo a { h a; }").is_err());
    }

    #[test]
    fn missing_header_is_an_error() {
        assert!(parse("qreg q[1];").is_err());
    }

    #[test]
    fn wrong_version_is_an_error() {
        assert!(parse("OPENQASM 3.0; qreg q[1];").is_err());
    }

    #[test]
    fn error_carries_line_number() {
        let err = parse_body("qreg q[1];\nh q[0]\ncx q[0], q[0];").unwrap_err();
        // Missing semicolon detected when `cx` appears on line 4 of the
        // full source (header is 2 lines).
        assert!(err.line() >= 4, "line was {}", err.line());
    }

    #[test]
    fn eof_errors_report_the_true_last_line() {
        // Truncated mid-statement on line 5 of the full source: the
        // unexpected-EOF error must point there, not at line 1.
        let err = parse_body("qreg q[4];\nh q[0];\ncx q[0], q[1]").unwrap_err();
        assert!(err.message().contains("end of input"), "{err}");
        assert_eq!(err.line(), 5);

        // Trailing blank/comment lines push the reported EOF line to the
        // real end of the file, past the last token.
        let err = parse_body("qreg q[4];\ncx q[0],\n// nothing follows\n\n").unwrap_err();
        assert!(err.message().contains("end of input"), "{err}");
        assert_eq!(err.line(), 7);
    }

    #[test]
    fn barrier_parses_registers_and_bits() {
        let c = parse_body("qreg q[3]; barrier q[0], q[2]; barrier q;").unwrap();
        let barriers: Vec<usize> = c
            .iter()
            .filter_map(|op| match op {
                Operation::Barrier { qs } => Some(qs.len()),
                _ => None,
            })
            .collect();
        assert_eq!(barriers, vec![2, 3]);
    }

    #[test]
    fn two_qubit_broadcast_pairs_elementwise() {
        let c = parse_body("qreg a[3]; qreg b[3]; cx a, b;").unwrap();
        assert_eq!(c.two_qubit_gate_count(), 3);
    }

    #[test]
    fn duplicate_qreg_error_is_deterministic() {
        // The register table iterates in declaration order, so the same
        // source must produce byte-identical errors on every parse.
        let src = "qreg a[2]; qreg b[2]; qreg a[3]; h a[0];";
        let first = parse_body(src).unwrap_err();
        assert_eq!(first.message(), "duplicate qreg `a`");
        for _ in 0..10 {
            assert_eq!(parse_body(src).unwrap_err(), first);
        }
    }

    #[test]
    fn register_sizes_past_u32_are_rejected_with_their_line() {
        let err = parse_body("qreg q[1];\nqreg r[4294967295];\nh q[0];").unwrap_err();
        assert_eq!(err.line(), 4, "{err}");
        assert!(err.message().contains("`r[4294967295]`"), "{err}");
        let err = parse_body("qreg q[1];\ncreg c[2];\ncreg d[4294967295];").unwrap_err();
        assert_eq!(err.line(), 5, "{err}");
        assert!(err.message().contains("`d[4294967295]`"), "{err}");
        // One register of the full width still fits.
        assert!(parse_body("qreg q[4294967295]; creg c[4294967295];").is_ok());
    }

    #[test]
    fn huge_broadcasts_are_rejected_at_their_statement() {
        let too_many = format!("program expands to more than {MAX_OPERATIONS} operations");
        for stmt in [
            "h q;",
            "rz(0.5) q;",
            "cx q, r[0];",
            "measure q -> c;",
            "barrier q;",
        ] {
            let err = parse_body(&format!(
                "qreg q[4294967294];\nqreg r[1];\ncreg c[4294967294];\n{stmt}"
            ))
            .unwrap_err();
            assert_eq!(
                (err.line(), err.message()),
                (6, too_many.as_str()),
                "{stmt}"
            );
        }
        // The bound counts the whole program, barrier qubits included:
        // `half - 1` gates, a barrier over `half - 1` qubits and one more
        // gate fill it exactly.
        let half = MAX_OPERATIONS / 2;
        let full = format!("qreg q[{}];\nh q;\nbarrier q;\nx q[0];", half - 1);
        assert_eq!(parse_body(&full).unwrap().len(), half + 1);
        let err = parse_body(&format!("{full}\nx q[1];")).unwrap_err();
        assert_eq!(err.line(), 7, "{err}");
    }

    #[test]
    fn expression_nesting_is_bounded() {
        let nested = |depth: usize, open: &str| {
            let open = open.repeat(depth);
            let close = ")".repeat(if open.starts_with('(') { depth } else { 0 });
            parse_body(&format!("qreg q[1];\nrz({open}1{close}) q[0];"))
        };
        assert!(nested(MAX_EXPRESSION_DEPTH as usize, "(").is_ok());
        assert!(nested(MAX_EXPRESSION_DEPTH as usize, "-").is_ok());
        // Unbounded, 50,000 levels would overflow the main thread's stack.
        for open in ["(", "-"] {
            let err = nested(50_000, open).unwrap_err();
            assert_eq!(err.line(), 4, "{err}");
            assert_eq!(
                err.message(),
                format!("angle expression nests deeper than {MAX_EXPRESSION_DEPTH} levels")
            );
        }
    }

    #[test]
    fn duplicate_operands_are_reported_at_their_statement() {
        let err = parse_body("qreg q[2];\nh q[1];\ncx q[0],q[0];").unwrap_err();
        assert_eq!(
            err.to_string(),
            "qasm parse error at line 5: two-qubit operation uses qubit q0 twice"
        );
        // A broadcast that pairs a qubit with itself, too.
        let err = parse_body("qreg q[2];\ncx q, q[1];").unwrap_err();
        assert_eq!(err.line(), 4, "{err}");
    }

    #[test]
    fn creg_bases_follow_declaration_order() {
        // A redeclared creg replaces the earlier entry; later bases
        // build on the declaration-ordered maximum, so measure targets
        // stay valid deterministically.
        let c = parse_body(
            "qreg q[4]; creg c[2]; creg d[2]; creg c[4]; measure q[0] -> c[3]; measure q[1] -> d[1];",
        )
        .unwrap();
        assert_eq!(c.measure_count(), 2);
        let err = parse_body("qreg q[2]; creg c[2]; measure q[0] -> c[2];").unwrap_err();
        assert!(err.message().contains("out of range"), "{err}");
    }
}
