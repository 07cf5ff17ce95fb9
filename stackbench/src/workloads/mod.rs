//! The benchmark's workloads. Each one builds its inputs from the seed,
//! drives the stack through its public entry points, and returns one
//! [`Round`](crate::round::Round).

pub mod chain_state;
pub mod dense_offload;
pub mod flood_kill;
pub mod rack_zipf;
