//! Loadable program images.

use std::collections::BTreeMap;

use shift_isa::Insn;

use crate::layout;

/// A fully linked guest program: code, initialized data, mappings, and
/// symbol information for diagnostics.
#[derive(Clone, Debug)]
pub struct Image {
    /// The code, indexed by instruction address.
    pub code: Vec<Insn>,
    /// Entry point (instruction index).
    pub entry: usize,
    /// Initialized data segments `(vaddr, bytes)`; their pages are mapped at
    /// load time.
    pub data: Vec<(u64, Vec<u8>)>,
    /// Additional zero-initialized mappings `(vaddr, len)`.
    pub maps: Vec<(u64, u64)>,
    /// Function symbols: entry instruction index → name.
    pub symbols: BTreeMap<usize, String>,
    /// Initial stack pointer.
    pub stack_top: u64,
    /// Stack bytes mapped below `stack_top`.
    pub stack_size: u64,
}

impl Image {
    /// Starts building an image.
    pub fn builder() -> ImageBuilder {
        ImageBuilder::default()
    }

    /// Static code size in instructions.
    pub fn insn_count(&self) -> usize {
        self.code.len()
    }

    /// Name of the function containing instruction `ip`, if known.
    pub fn symbol_at(&self, ip: usize) -> Option<&str> {
        self.symbols.range(..=ip).next_back().map(|(_, name)| name.as_str())
    }
}

/// Builder for [`Image`].
#[derive(Clone, Debug)]
pub struct ImageBuilder {
    code: Vec<Insn>,
    entry: usize,
    data: Vec<(u64, Vec<u8>)>,
    maps: Vec<(u64, u64)>,
    symbols: BTreeMap<usize, String>,
    stack_top: u64,
    stack_size: u64,
}

impl Default for ImageBuilder {
    fn default() -> Self {
        ImageBuilder {
            code: Vec::new(),
            entry: 0,
            data: Vec::new(),
            maps: Vec::new(),
            symbols: BTreeMap::new(),
            stack_top: layout::stack_top(),
            stack_size: layout::STACK_SIZE,
        }
    }
}

impl ImageBuilder {
    /// Sets the code image.
    pub fn code(mut self, code: Vec<Insn>) -> Self {
        self.code = code;
        self
    }

    /// Sets the entry instruction index (default 0).
    pub fn entry(mut self, entry: usize) -> Self {
        self.entry = entry;
        self
    }

    /// Adds an initialized data segment.
    pub fn data(mut self, vaddr: u64, bytes: Vec<u8>) -> Self {
        self.data.push((vaddr, bytes));
        self
    }

    /// Adds a zero-initialized mapping.
    pub fn map(mut self, vaddr: u64, len: u64) -> Self {
        self.maps.push((vaddr, len));
        self
    }

    /// Records a function symbol.
    pub fn symbol(mut self, ip: usize, name: impl Into<String>) -> Self {
        self.symbols.insert(ip, name.into());
        self
    }

    /// Overrides the stack placement.
    pub fn stack(mut self, top: u64, size: u64) -> Self {
        self.stack_top = top;
        self.stack_size = size;
        self
    }

    /// Finalizes the image.
    ///
    /// # Panics
    ///
    /// Panics if the entry point lies outside the code.
    pub fn build(self) -> Image {
        assert!(
            self.entry < self.code.len() || self.code.is_empty(),
            "entry point {} outside code of {} instructions",
            self.entry,
            self.code.len()
        );
        Image {
            code: self.code,
            entry: self.entry,
            data: self.data,
            maps: self.maps,
            symbols: self.symbols,
            stack_top: self.stack_top,
            stack_size: self.stack_size,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shift_isa::Op;

    #[test]
    fn symbol_lookup_finds_enclosing_function() {
        let img = Image::builder()
            .code(vec![Insn::new(Op::Nop); 10])
            .symbol(0, "main")
            .symbol(5, "helper")
            .build();
        assert_eq!(img.symbol_at(0), Some("main"));
        assert_eq!(img.symbol_at(4), Some("main"));
        assert_eq!(img.symbol_at(5), Some("helper"));
        assert_eq!(img.symbol_at(9), Some("helper"));
    }

    #[test]
    #[should_panic(expected = "entry point")]
    fn bad_entry_rejected() {
        let _ = Image::builder().code(vec![Insn::new(Op::Nop)]).entry(5).build();
    }
}
