//! Stackful coroutines: the process backend on x86_64 Linux.
//!
//! Each simulated process runs on a stack of its own, on the thread that
//! calls [`Simulation::run`](super::Simulation::run). The scheduler enters a
//! process with one [`switch`] and the process leaves the same way when it
//! blocks or ends: seven register pushes and pops, no kernel entry and no
//! second OS thread.
//!
//! Stacks are mapped with `mmap` at the size std gives a spawned thread,
//! with a `PROT_NONE` guard page at the low end so an overflow faults
//! instead of overwriting memory below. Pages commit on first touch, so a
//! process that uses a few KiB of stack costs a few KiB of memory. A
//! finished process's stack goes back to its simulation's [`StackPool`],
//! and the next process to start reuses it without a system call.

use std::cell::Cell;
use std::ffi::c_void;
use std::io;
use std::ptr::{self, NonNull};

use super::{ResumeReason, YieldKind};

/// Bytes reserved per process stack, guard page included: std's default
/// stack for a spawned thread.
const STACK_BYTES: usize = 2 << 20;

/// The x86_64 page size, and so the size of the guard page.
const PAGE_BYTES: usize = 4096;

const PROT_NONE: i32 = 0;
const PROT_READ: i32 = 1;
const PROT_WRITE: i32 = 2;
const MAP_PRIVATE: i32 = 0x02;
const MAP_ANONYMOUS: i32 = 0x20;
const MAP_NORESERVE: i32 = 0x4000;
const MAP_STACK: i32 = 0x2_0000;
const MAP_FAILED: *mut c_void = !0usize as *mut c_void;

/// MXCSR and x87 control word a new coroutine starts with: every floating
/// point exception masked, round to nearest — what a new thread gets.
const MXCSR_DEFAULT: u64 = 0x1f80;
const FPU_CW_DEFAULT: u64 = 0x037f;

extern "C" {
    fn mmap(addr: *mut c_void, len: usize, prot: i32, flags: i32, fd: i32, off: i64)
        -> *mut c_void;
    fn mprotect(addr: *mut c_void, len: usize, prot: i32) -> i32;
    fn munmap(addr: *mut c_void, len: usize) -> i32;
}

/// One mapped process stack: `STACK_BYTES` from `base`, the lowest page
/// of which is the guard.
struct Stack {
    base: NonNull<u8>,
}

// SAFETY: a `Stack` exclusively owns its mapping; nothing else holds the
// pointer, so moving the owner to another thread is moving plain memory.
unsafe impl Send for Stack {}

impl Stack {
    fn map() -> Stack {
        // SAFETY: an anonymous private mapping at an address the kernel
        // picks aliases no existing memory; the result is checked below.
        let p = unsafe {
            mmap(
                ptr::null_mut(),
                STACK_BYTES,
                PROT_READ | PROT_WRITE,
                MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK,
                -1,
                0,
            )
        };
        assert!(
            p != MAP_FAILED,
            "mapping a {STACK_BYTES}-byte process stack failed: {}",
            io::Error::last_os_error()
        );
        // SAFETY: `p` is the page-aligned start of the mapping just made,
        // which is longer than one page and not yet shared with anyone.
        let rc = unsafe { mprotect(p, PAGE_BYTES, PROT_NONE) };
        assert_eq!(rc, 0, "guarding a process stack failed: {}", io::Error::last_os_error());
        Stack { base: NonNull::new(p.cast()).expect("mmap returned a null mapping") }
    }

    /// Lowest usable address (just above the guard page).
    fn low(&self) -> usize {
        self.base.as_ptr() as usize + PAGE_BYTES
    }

    /// One past the highest address; 16-byte aligned.
    fn high(&self) -> usize {
        self.base.as_ptr() as usize + STACK_BYTES
    }

    /// Writes the frame [`switch`] pops on its first switch into a
    /// coroutine — default MXCSR and x87 control word, `r12 = ctl`, a zero
    /// `rbp` and [`trampoline`] as the return address — and returns the
    /// stack pointer to switch to. Above the frame, 16 zero bytes keep the
    /// trampoline's stack aligned for its call.
    fn prepare(&self, ctl: *const Ctl) -> *mut u8 {
        let frame: [u64; 10] = [
            MXCSR_DEFAULT | (FPU_CW_DEFAULT << 32),
            0,                              // r15
            0,                              // r14
            0,                              // r13
            ctl as u64,                     // r12
            0,                              // rbx
            0,                              // rbp: the end of the frame chain
            trampoline as *const () as u64, // return address
            0,
            0,
        ];
        let sp = (self.high() - std::mem::size_of_val(&frame)) as *mut u64;
        // SAFETY: the 80 bytes below `high` lie inside this mapping, above
        // the guard page, are 16-byte aligned, and no coroutine is running
        // on this stack (a pooled or fresh stack has no live frames).
        unsafe { ptr::copy_nonoverlapping(frame.as_ptr(), sp, frame.len()) };
        sp.cast()
    }
}

impl Drop for Stack {
    fn drop(&mut self) {
        // SAFETY: `base` is the start of a mapping of exactly `STACK_BYTES`
        // owned by this value alone; no frame on it is live (a coroutine
        // suspended mid-body leaks its stack instead, see `Coroutine`).
        // A failed unmap only leaks address space, so its result is ignored.
        unsafe { munmap(self.base.as_ptr().cast(), STACK_BYTES) };
    }
}

/// The stacks one simulation has mapped: those of running and suspended
/// processes, plus a free list of finished processes' stacks for reuse.
#[derive(Default)]
pub(crate) struct StackPool {
    free: Vec<Stack>,
    mapped: usize,
}

impl StackPool {
    fn take(&mut self) -> Stack {
        self.free.pop().unwrap_or_else(|| {
            self.mapped += 1;
            Stack::map()
        })
    }

    fn give(&mut self, stack: Stack) {
        self.free.push(stack);
    }

    /// Stacks mapped so far.
    pub(crate) fn mapped(&self) -> usize {
        self.mapped
    }
}

/// A process body as a coroutine runs it: it receives the handle it
/// suspends itself with and returns how it ended.
pub(crate) type Body = Box<dyn FnOnce(Yielder) -> YieldKind + Send>;

/// What the scheduler and one coroutine pass each other across switches.
/// Heap-allocated, so its address stays fixed while the coroutine runs.
struct Ctl {
    /// The coroutine's stack pointer while it is suspended.
    sp: Cell<*mut u8>,
    /// The scheduler's stack pointer while the coroutine runs.
    sched_sp: Cell<*mut u8>,
    /// Why the scheduler last resumed the coroutine.
    reason: Cell<ResumeReason>,
    /// How the coroutine last left: blocked, or ended and why.
    yielded: Cell<Option<YieldKind>>,
    /// The body, until the first switch starts it.
    body: Cell<Option<Body>>,
    /// Bounds of the coroutine's stack, once it has one.
    stack_range: Cell<(usize, usize)>,
}

/// A simulated process as a coroutine: its body until it starts, then its
/// stack and suspended state until it ends.
pub(crate) struct Coroutine {
    /// Owned, from `Box::leak`. Not a `Box`: the running coroutine
    /// reaches the same `Ctl` through a pointer of its own while this value
    /// is moved and borrowed, which a `Box`'s uniqueness would forbid.
    ctl: NonNull<Ctl>,
    /// Present from the first resume until the body ends.
    stack: Option<Stack>,
}

// SAFETY: `ctl`'s pointers address this coroutine's own stack and the stack
// of the thread running its simulation, and are read only by `resume` and
// by the coroutine itself. Both happen inside `Simulation::run` or the
// simulation's drop, and `Simulation` is `!Send`, so every switch into and
// out of a coroutine happens on the one thread its simulation lives on.
// The body is `Send`, and `stack` is a plain owned mapping (see `Stack`).
unsafe impl Send for Coroutine {}

impl Coroutine {
    pub(crate) fn new(body: Body) -> Coroutine {
        let ctl = Box::new(Ctl {
            sp: Cell::new(ptr::null_mut()),
            sched_sp: Cell::new(ptr::null_mut()),
            reason: Cell::new(ResumeReason::Start),
            yielded: Cell::new(None),
            body: Cell::new(Some(body)),
            stack_range: Cell::new((0, 0)),
        });
        Coroutine { ctl: NonNull::from(Box::leak(ctl)), stack: None }
    }

    /// True once the body has started and until it ends.
    pub(crate) fn is_started(&self) -> bool {
        self.stack.is_some()
    }

    /// Switches into the coroutine — starting it on a stack from `pool` on
    /// first use — and returns once it blocks or ends. An ended
    /// coroutine's stack goes back to `pool`.
    pub(crate) fn resume(&mut self, pool: &mut StackPool, reason: ResumeReason) -> YieldKind {
        // SAFETY: `ctl` came from `Box::leak` in `new` and is freed only by
        // `drop`; nothing ever takes a `&mut` to it.
        let ctl = unsafe { self.ctl.as_ref() };
        if self.stack.is_none() {
            let stack = pool.take();
            ctl.sp.set(stack.prepare(ctl));
            ctl.stack_range.set((stack.low(), stack.high()));
            self.stack = Some(stack);
        }
        ctl.reason.set(reason);
        // SAFETY: `ctl.sp` holds the stack pointer of this coroutine's
        // suspended frame (or the start frame `prepare` just wrote) on a
        // stack `self` owns, and `ctl` is on the heap, so the slot the
        // scheduler's stack pointer is saved in stays put until the
        // coroutine switches back to it.
        unsafe { switch(ctl.sched_sp.as_ptr(), ctl.sp.get()) };
        let kind = ctl.yielded.take().expect("a coroutine switched back without yielding");
        if !matches!(kind, YieldKind::Blocked) {
            pool.give(self.stack.take().expect("a running coroutine has a stack"));
        }
        kind
    }
}

impl Drop for Coroutine {
    fn drop(&mut self) {
        // Dropped while suspended mid-body: the objects on its stack were
        // never unwound, and references to them may still be reachable, so
        // the stack is leaked rather than unmapped.
        if let Some(stack) = self.stack.take() {
            std::mem::forget(stack);
        }
        // SAFETY: `ctl` came from `Box::leak` in `new`, and this is its only
        // release. A coroutine whose stack was leaked above never runs again,
        // so no frame uses `ctl` after this.
        drop(unsafe { Box::from_raw(self.ctl.as_ptr()) });
    }
}

/// The handle a running coroutine suspends itself with.
#[derive(Clone, Copy)]
pub(crate) struct Yielder(NonNull<Ctl>);

impl Yielder {
    /// Switches back to the scheduler, reporting the coroutine blocked, and
    /// returns the reason the scheduler resumes it with.
    ///
    /// # Panics
    ///
    /// If called from any stack but the coroutine's own.
    pub(crate) fn suspend(self) -> ResumeReason {
        // SAFETY: a `Yielder` is made only by `entry` for the coroutine it
        // runs, whose `Ctl` outlives every frame on its stack.
        let ctl = unsafe { self.0.as_ref() };
        let here = ptr::addr_of!(self) as usize;
        let (low, high) = ctl.stack_range.get();
        assert!(
            (low..high).contains(&here),
            "a simulated process suspended from outside its own stack"
        );
        ctl.yielded.set(Some(YieldKind::Blocked));
        // SAFETY: this runs on the coroutine's own stack (checked above),
        // and `sched_sp` holds the scheduler frame that switched into it,
        // suspended in `Coroutine::resume` until this switch returns to it.
        unsafe { switch(ctl.sp.as_ptr(), ctl.sched_sp.get()) };
        ctl.reason.get()
    }
}

/// The first Rust frame on every coroutine stack, called by [`trampoline`]
/// with the coroutine's `Ctl`. Runs the body (which catches its own
/// panics), reports how it ended and switches away for good.
extern "C" fn entry(ctl: *const Ctl) -> ! {
    // SAFETY: `prepare` put the address of the resuming coroutine's `Ctl`
    // in `r12`, and the trampoline passed it on unchanged.
    let ctl = unsafe { &*ctl };
    let body = ctl.body.take().expect("a coroutine started twice");
    let kind = body(Yielder(NonNull::from(ctl)));
    ctl.yielded.set(Some(kind));
    // SAFETY: as in `Yielder::suspend`. Nothing on this stack needs
    // dropping any more, and an ended coroutine is never resumed.
    unsafe { switch(ctl.sp.as_ptr(), ctl.sched_sp.get()) };
    std::process::abort()
}

/// Saves the callee-saved registers, MXCSR and the x87 control word on the
/// current stack, stores the stack pointer in `*save`, then loads `to` as
/// the stack pointer and restores the same set from it — returning into
/// whatever suspended itself there (or, the first time, into
/// [`trampoline`]).
///
/// # Safety
///
/// `save` must be valid for a write, and `to` must be a stack pointer left
/// by an earlier `switch` (or by [`Stack::prepare`]) whose stack is still
/// mapped and not running.
#[unsafe(naked)]
unsafe extern "sysv64" fn switch(save: *mut *mut u8, to: *mut u8) {
    core::arch::naked_asm!(
        "push rbp",
        "push rbx",
        "push r12",
        "push r13",
        "push r14",
        "push r15",
        "sub rsp, 8",
        "stmxcsr dword ptr [rsp]",
        "fnstcw word ptr [rsp + 4]",
        "mov [rdi], rsp",
        "mov rsp, rsi",
        "ldmxcsr dword ptr [rsp]",
        "fldcw word ptr [rsp + 4]",
        "add rsp, 8",
        "pop r15",
        "pop r14",
        "pop r13",
        "pop r12",
        "pop rbx",
        "pop rbp",
        "ret",
    )
}

/// Where a new coroutine begins: calls [`entry`] with the `Ctl` pointer
/// [`Stack::prepare`] left in `r12`. Its unwind info marks the return
/// address undefined, so unwinders and backtraces stop here instead of
/// walking off the top of the stack.
#[unsafe(naked)]
unsafe extern "sysv64" fn trampoline() -> ! {
    core::arch::naked_asm!(
        ".cfi_startproc",
        ".cfi_undefined rip",
        "mov rdi, r12",
        "call {entry}",
        "ud2",
        ".cfi_endproc",
        entry = sym entry,
    )
}
