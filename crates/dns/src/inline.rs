//! A short list kept on the stack until it outgrows its inline capacity.

/// A list of at most `N` items in an inline array; pushing past `N` moves
/// the list to the heap once. The hot paths that use it — a message's
/// compression table, a lookup call's question positions — almost never
/// leave the array, so they allocate nothing.
pub(crate) struct InlineVec<T: Copy + Default, const N: usize> {
    inline: [T; N],
    len: usize,
    /// Every item, once there are more than `N`; empty until then.
    heap: Vec<T>,
}

impl<T: Copy + Default, const N: usize> InlineVec<T, N> {
    pub(crate) fn new() -> Self {
        InlineVec {
            inline: [T::default(); N],
            len: 0,
            heap: Vec::new(),
        }
    }

    pub(crate) fn push(&mut self, item: T) {
        if self.heap.is_empty() && self.len < N {
            self.inline[self.len] = item;
            self.len += 1;
            return;
        }
        if self.heap.is_empty() {
            self.heap.reserve(2 * N);
            self.heap.extend_from_slice(&self.inline);
        }
        self.heap.push(item);
    }

    pub(crate) fn as_slice(&self) -> &[T] {
        if self.heap.is_empty() {
            &self.inline[..self.len]
        } else {
            &self.heap
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn items_keep_their_order_across_the_move_to_the_heap() {
        let mut list = InlineVec::<usize, 4>::new();
        assert!(list.as_slice().is_empty());
        for i in 0..4 {
            list.push(i);
        }
        assert_eq!(list.as_slice(), &[0, 1, 2, 3]);
        for i in 4..11 {
            list.push(i);
        }
        assert_eq!(list.as_slice(), (0..11).collect::<Vec<_>>().as_slice());
    }
}
