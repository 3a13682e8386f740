//! Program structure: functions, blocks, locals, globals.

use core::fmt;

use crate::inst::{Inst, Terminator};

macro_rules! id_type {
    ($(#[$meta:meta])* $name:ident, $prefix:literal) => {
        $(#[$meta])*
        #[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
        pub struct $name(pub u32);

        impl $name {
            /// The id as a usize index.
            #[inline]
            pub fn index(self) -> usize {
                self.0 as usize
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{}{}", $prefix, self.0)
            }
        }
    };
}

id_type! {
    /// A virtual register. Not SSA: a virtual register may be redefined,
    /// which is how loop-carried values are expressed without phi nodes.
    VReg, "v"
}
id_type! {
    /// A basic-block id within one function.
    BlockId, "bb"
}
id_type! {
    /// A stack-slot id within one function (address-taken variables).
    LocalId, "loc"
}
id_type! {
    /// A global-variable id within a program.
    GlobalId, "g"
}

/// A basic block: straight-line instructions plus one terminator.
#[derive(Clone, Debug, Default)]
pub struct Block {
    /// The block body.
    pub insts: Vec<Inst>,
    /// The terminator; `None` only transiently during building.
    pub term: Option<Terminator>,
}

impl Block {
    /// Successor blocks of this block's terminator.
    pub fn successors(&self) -> Vec<BlockId> {
        match &self.term {
            Some(Terminator::Jmp(b)) => vec![*b],
            Some(Terminator::Br { then_bb, else_bb, .. }) => vec![*then_bb, *else_bb],
            Some(Terminator::Ret(_)) | None => Vec::new(),
        }
    }
}

/// A stack slot.
#[derive(Clone, Copy, Debug)]
pub struct Local {
    /// Size in bytes (rounded up to 8 by the frame builder).
    pub size: u64,
}

/// A function: `params` incoming arguments (in `v0..v{params}`), a CFG whose
/// entry is block 0, stack locals, and a virtual-register budget.
#[derive(Clone, Debug)]
pub struct Function {
    /// Function name (link-time symbol).
    pub name: String,
    /// Number of parameters; parameter `i` arrives in `VReg(i)`.
    pub params: usize,
    /// Basic blocks; `BlockId(0)` is the entry.
    pub blocks: Vec<Block>,
    /// Stack slots.
    pub locals: Vec<Local>,
    /// Number of virtual registers used (`v0..v{vregs}`).
    pub vregs: u32,
}

/// A global variable.
#[derive(Clone, Debug)]
pub struct Global {
    /// Symbol name.
    pub name: String,
    /// Size in bytes.
    pub size: u64,
    /// Initial contents (zero-filled to `size` if shorter).
    pub init: Vec<u8>,
}

/// A whole program: globals plus functions. Execution starts at the function
/// named `"main"`.
#[derive(Clone, Debug, Default)]
pub struct Program {
    /// All functions; call instructions reference them by name.
    pub funcs: Vec<Function>,
    /// All globals.
    pub globals: Vec<Global>,
}

impl Program {
    /// Looks up a function by name.
    pub fn func(&self, name: &str) -> Option<&Function> {
        self.funcs.iter().find(|f| f.name == name)
    }

    /// Looks up a global by name.
    pub fn global(&self, name: &str) -> Option<(GlobalId, &Global)> {
        self.globals
            .iter()
            .enumerate()
            .find(|(_, g)| g.name == name)
            .map(|(i, g)| (GlobalId(i as u32), g))
    }

    /// Merges another program's functions and globals into this one
    /// (used to link the guest libc with application code).
    ///
    /// # Panics
    ///
    /// Panics on duplicate function names. Global ids in `other` are
    /// remapped.
    pub fn link(&mut self, other: Program) {
        for f in &other.funcs {
            assert!(self.func(&f.name).is_none(), "duplicate function `{}` while linking", f.name);
        }
        let offset = self.globals.len() as u32;
        self.globals.extend(other.globals);
        for mut f in other.funcs {
            for block in &mut f.blocks {
                for inst in &mut block.insts {
                    if let Inst::GlobalAddr { global, .. } = inst {
                        global.0 += offset;
                    }
                }
            }
            self.funcs.push(f);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ProgramBuilder;

    #[test]
    fn display_ids() {
        assert_eq!(VReg(3).to_string(), "v3");
        assert_eq!(BlockId(0).to_string(), "bb0");
        assert_eq!(LocalId(1).to_string(), "loc1");
        assert_eq!(GlobalId(9).to_string(), "g9");
    }

    #[test]
    fn link_remaps_globals() {
        let mut a = ProgramBuilder::new();
        a.global("ga", 8, vec![1]);
        a.func("main", 0, |f| f.ret(None));
        let mut pa = a.build().unwrap();

        let mut b = ProgramBuilder::new();
        let gb = b.global("gb", 8, vec![2]);
        b.func("helper", 0, move |f| {
            let addr = f.global_addr(gb);
            let v = f.load8(addr, 0);
            f.ret(Some(v));
        });
        let pb = b.build().unwrap();

        pa.link(pb);
        assert_eq!(pa.globals.len(), 2);
        let helper = pa.func("helper").unwrap();
        let got = helper.blocks[0]
            .insts
            .iter()
            .find_map(|i| match i {
                Inst::GlobalAddr { global, .. } => Some(*global),
                _ => None,
            })
            .unwrap();
        assert_eq!(got, GlobalId(1), "linked global must be remapped past existing ones");
    }

    #[test]
    #[should_panic(expected = "duplicate function")]
    fn link_rejects_duplicates() {
        let mut a = ProgramBuilder::new();
        a.func("main", 0, |f| f.ret(None));
        let mut pa = a.build().unwrap();
        let mut b = ProgramBuilder::new();
        b.func("main", 0, |f| f.ret(None));
        pa.link(b.build().unwrap());
    }
}
