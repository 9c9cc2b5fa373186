//! Kernel names without `core::fmt`.
//!
//! A queue names every launch it prepares, and the name is the key a
//! fault plan dooms kernels by, so it must stay byte-identical to
//! `format!("gemm_{config}_{shape}")`. A SYCL kernel's name is fixed at
//! compile time; here the configuration part is
//! ([`crate::KernelConfig::label`]), and only the shape's digits are
//! written at launch time, into a stack buffer that is copied once into
//! the `Arc<str>` every event of the launch shares.

use crate::shape::GemmShape;
use std::sync::Arc;

/// Room for the longest name any kernel writes: a batched kernel's
/// `batched{n}x_gemm_{config}_{m}x{k}x{n}` with 20-digit numbers is
/// 111 bytes.
const CAPACITY: usize = 128;

/// A kernel name under construction on the stack.
pub(crate) struct KernelName {
    bytes: [u8; CAPACITY],
    len: usize,
}

impl KernelName {
    /// An empty name.
    #[inline]
    pub(crate) fn new() -> Self {
        KernelName {
            bytes: [0; CAPACITY],
            len: 0,
        }
    }

    /// Append `text`.
    #[inline]
    pub(crate) fn push(&mut self, text: &str) -> &mut Self {
        self.append(text.as_bytes())
    }

    #[inline]
    fn append(&mut self, bytes: &[u8]) -> &mut Self {
        let end = self.len + bytes.len();
        if let Some(to) = self.bytes.get_mut(self.len..end) {
            to.copy_from_slice(bytes);
            self.len = end;
        }
        self
    }

    /// Append `value` in decimal, as `Display` writes it.
    #[inline]
    pub(crate) fn number(&mut self, mut value: usize) -> &mut Self {
        let mut digits = [0u8; 20];
        let mut start = digits.len();
        loop {
            start -= 1;
            if let Some(digit) = digits.get_mut(start) {
                *digit = b'0' + (value % 10) as u8;
            }
            value /= 10;
            if value == 0 {
                break;
            }
        }
        self.append(digits.get(start..).unwrap_or_default())
    }

    /// Append `shape` as its `Display` writes it: `{m}x{k}x{n}`.
    #[inline]
    pub(crate) fn shape(&mut self, shape: &GemmShape) -> &mut Self {
        self.number(shape.m)
            .push("x")
            .number(shape.k)
            .push("x")
            .number(shape.n)
    }

    /// The finished name, in one allocation.
    #[inline]
    pub(crate) fn finish(&self) -> Arc<str> {
        let text = self
            .bytes
            .get(..self.len)
            .and_then(|b| std::str::from_utf8(b).ok())
            .unwrap_or_default();
        Arc::from(text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numbers_match_display() {
        for value in [0, 1, 9, 10, 99, 100, 4096, 1_234_567, usize::MAX] {
            assert_eq!(
                &*KernelName::new().number(value).finish(),
                value.to_string()
            );
        }
    }

    #[test]
    fn the_longest_name_fits() {
        let max = GemmShape::new(usize::MAX, usize::MAX, usize::MAX);
        let name = KernelName::new()
            .push("batched")
            .number(usize::MAX)
            .push("x_gemm_T8x8A8_WG128x1_")
            .shape(&max)
            .finish();
        assert_eq!(
            &*name,
            format!("batched{}x_gemm_T8x8A8_WG128x1_{max}", usize::MAX)
        );
    }
}
