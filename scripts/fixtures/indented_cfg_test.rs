// Fixture for scripts/code_lines.sh: the indented `#[cfg(test)]` gates one
// item and must not end the count; only the column-0 one does. Expected:
// 12 code-only lines (CI's `lint` job checks it).

pub struct Ring {
    len: usize,
}

impl Ring {
    #[cfg(test)]
    fn len(&self) -> usize {
        self.len
    }

    pub fn new() -> Self {
        Ring { len: 0 }
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn not_counted() {}
}
