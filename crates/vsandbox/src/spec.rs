//! Sandbox identity, configuration and state machine.

use core::fmt;
use std::sync::Arc;

use hetsim::fpga::KernelSpec;
use serde::{Deserialize, Serialize};

/// Identifier of one sandbox instance (the OCI `<sandbox-id>`).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct SandboxId(pub String);

impl SandboxId {
    /// Creates an id from any string-ish value.
    pub fn new(id: impl Into<String>) -> SandboxId {
        SandboxId(id.into())
    }

    /// The id as a string slice.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for SandboxId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for SandboxId {
    fn from(s: &str) -> SandboxId {
        SandboxId(s.to_owned())
    }
}

/// Identifier of a deployed function (the `<func-id>` in `create`).
///
/// Shared, not copied: a clone bumps a reference count. Equality, ordering
/// and hashing are the string's, so maps keyed by ids iterate in the same
/// order as maps keyed by the names.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct FuncId(Arc<str>);

impl FuncId {
    /// Creates an id from any string-ish value.
    pub fn new(id: impl Into<String>) -> FuncId {
        FuncId(Arc::from(id.into()))
    }

    /// The id as a string slice.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for FuncId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for FuncId {
    fn from(s: &str) -> FuncId {
        FuncId(Arc::from(s))
    }
}

impl From<String> for FuncId {
    fn from(s: String) -> FuncId {
        FuncId(Arc::from(s))
    }
}

/// Language runtime a function is written against (paper §4.1/§5: Python and
/// Node.js cover ~90% of AWS functions; OpenCL and CUDA serve FPGA/GPU).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum LangRuntime {
    /// CPython with the forkable-runtime wrapper.
    Python,
    /// Node.js with the forkable-runtime wrapper.
    NodeJs,
    /// OpenCL via a Vitis-style toolchain (FPGA functions).
    OpenCl,
    /// CUDA C++ kernels (GPU functions).
    Cuda,
}

impl fmt::Display for LangRuntime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            LangRuntime::Python => "python",
            LangRuntime::NodeJs => "nodejs",
            LangRuntime::OpenCl => "opencl",
            LangRuntime::Cuda => "cuda",
        };
        f.write_str(s)
    }
}

/// The `config.json` equivalent: what a sandbox needs to run one function.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SandboxConfig {
    /// The function to host.
    pub func: FuncId,
    /// Its language runtime.
    pub lang: LangRuntime,
    /// Memory reservation in MiB (explicitly assigned by the user, §4.1).
    pub memory_mib: u64,
    /// Synthesized kernel, for FPGA sandboxes.
    pub fpga_kernel: Option<KernelSpec>,
}

impl SandboxConfig {
    /// Convenience constructor for a CPU/DPU function.
    pub fn general(func: impl Into<FuncId>, lang: LangRuntime, memory_mib: u64) -> SandboxConfig {
        SandboxConfig { func: func.into(), lang, memory_mib, fpga_kernel: None }
    }

    /// Convenience constructor for an FPGA function.
    pub fn fpga(func: impl Into<FuncId>, kernel: KernelSpec) -> SandboxConfig {
        SandboxConfig {
            func: func.into(),
            lang: LangRuntime::OpenCl,
            memory_mib: 0,
            fpga_kernel: Some(kernel),
        }
    }
}

/// Lifecycle state of a sandbox (the OCI `state` verb's answer).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SandboxState {
    /// `create` completed; not yet started.
    Created,
    /// `start` completed; serving requests.
    Running,
    /// received a fatal signal via `kill`.
    Stopped,
    /// `delete` completed (for `runf` this is lazy: the hardware is
    /// reclaimed by the *next* `create`).
    Deleted,
}

impl SandboxState {
    /// Whether the OCI verbs allow moving from `self` to `to`.
    pub fn can_transition_to(self, to: SandboxState) -> bool {
        use SandboxState::*;
        matches!(
            (self, to),
            (Created, Running)
                | (Created, Stopped)
                | (Created, Deleted)
                | (Running, Stopped)
                | (Running, Deleted)
                | (Stopped, Running)
                | (Stopped, Deleted)
        )
    }
}

impl fmt::Display for SandboxState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            SandboxState::Created => "created",
            SandboxState::Running => "running",
            SandboxState::Stopped => "stopped",
            SandboxState::Deleted => "deleted",
        };
        f.write_str(s)
    }
}

/// Signals deliverable through the OCI `kill` verb.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Signal {
    /// Graceful termination.
    Term,
    /// Immediate kill.
    Kill,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn state_machine_allows_oci_paths() {
        use SandboxState::*;
        assert!(Created.can_transition_to(Running));
        assert!(Running.can_transition_to(Stopped));
        assert!(Stopped.can_transition_to(Running), "warm restart");
        assert!(Stopped.can_transition_to(Deleted));
        assert!(!Deleted.can_transition_to(Running));
        assert!(!Running.can_transition_to(Created));
        assert!(!Created.can_transition_to(Created));
    }

    #[test]
    fn config_constructors() {
        let c = SandboxConfig::general(FuncId::new("img"), LangRuntime::Python, 128);
        assert_eq!(c.memory_mib, 128);
        assert!(c.fpga_kernel.is_none());
        let k = KernelSpec { name: "madd".to_owned(), resources: Default::default() };
        let f = SandboxConfig::fpga(FuncId::new("madd"), k);
        assert_eq!(f.lang, LangRuntime::OpenCl);
        assert!(f.fpga_kernel.is_some());
    }

    #[test]
    fn display_impls() {
        assert_eq!(SandboxId::new("sb-1").to_string(), "sb-1");
        assert_eq!(LangRuntime::Python.to_string(), "python");
        assert_eq!(SandboxState::Running.to_string(), "running");
    }
}
