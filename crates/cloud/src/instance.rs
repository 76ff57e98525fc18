//! Instance shapes: how many (virtual) CPU cores a worker VM carries.
//!
//! Table III: "Possible instance sizes (cores): 1, 2, 4, 8, 16".

/// The paper's instance catalogue.
pub const INSTANCE_SIZES: [u32; 5] = [1, 2, 4, 8, 16];

/// A validated instance size.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct InstanceSize(u32);

impl InstanceSize {
    /// Wraps a core count if it is in the catalogue.
    #[inline]
    pub fn new(cores: u32) -> Option<Self> {
        INSTANCE_SIZES.contains(&cores).then_some(InstanceSize(cores))
    }

    /// Core count.
    #[inline]
    pub fn cores(self) -> u32 {
        self.0
    }

    /// All sizes, smallest first.
    pub fn all() -> impl Iterator<Item = InstanceSize> {
        INSTANCE_SIZES.iter().map(|&c| InstanceSize(c))
    }
}

impl std::fmt::Display for InstanceSize {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}-core", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_sizes_valid() {
        for c in INSTANCE_SIZES {
            assert_eq!(InstanceSize::new(c).unwrap().cores(), c);
        }
        assert!(InstanceSize::new(3).is_none());
        assert!(InstanceSize::new(0).is_none());
        assert!(InstanceSize::new(32).is_none());
    }

    #[test]
    fn all_iterates_in_order() {
        let v: Vec<u32> = InstanceSize::all().map(InstanceSize::cores).collect();
        assert_eq!(v, vec![1, 2, 4, 8, 16]);
    }
}
