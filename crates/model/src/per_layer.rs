//! Allocation-free per-layer storage for one loss build.
//!
//! A loss build records its terms phase by phase across all layers
//! (factors, then capacities, then performance, then the cross-layer
//! folds), so it has to hold one value per layer between phases. Those
//! values borrow the tape, which rules out buffers that outlive the call;
//! [`PerLayer`] keeps them on the stack instead, so recording a step
//! allocates nothing.

/// Layers a [`PerLayer`] holds inline. Every network in the suite fits
/// (ResNeXt-50 has the most unique layers, 22); a longer layer list
/// spills the excess to the heap, still correct, just not allocation-free.
pub(crate) const INLINE_LAYERS: usize = 32;

/// A push-only list of per-layer values: the first [`INLINE_LAYERS`] live
/// inline, the rest in a `Vec` that stays empty (and unallocated) for
/// every network in the suite.
pub(crate) struct PerLayer<T> {
    inline: [Option<T>; INLINE_LAYERS],
    len: usize,
    spill: Vec<T>,
}

impl<T: Copy> PerLayer<T> {
    #[inline]
    pub(crate) fn new() -> PerLayer<T> {
        PerLayer {
            inline: [None; INLINE_LAYERS],
            len: 0,
            spill: Vec::new(),
        }
    }

    /// Append the next layer's value.
    #[inline]
    pub(crate) fn push(&mut self, value: T) {
        match self.inline.get_mut(self.len) {
            Some(slot) => *slot = Some(value),
            None => self.spill.push(value),
        }
        self.len += 1;
    }

    /// The values in push order.
    #[inline]
    pub(crate) fn iter(&self) -> impl Iterator<Item = &T> + Clone + '_ {
        self.inline
            .iter()
            .map_while(Option::as_ref)
            .chain(&self.spill)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keeps_push_order_across_the_spill() {
        let mut list = PerLayer::new();
        for i in 0..INLINE_LAYERS + 5 {
            list.push(i);
        }
        let got: Vec<usize> = list.iter().copied().collect();
        assert_eq!(got, (0..INLINE_LAYERS + 5).collect::<Vec<_>>());
        assert_eq!(list.spill.len(), 5);
    }
}
