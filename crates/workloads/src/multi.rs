//! Multi-tenant workload composition: one warp program per tenant, mapped
//! onto the tenant's SM partition (paper §III-D spatial sharing).

use avatar_sim::sm::{WarpOp, WarpProgram};

/// Runs one program per tenant over contiguous SM partitions, mirroring
/// the engine's `tenants` partitioning: SM `s` belongs to tenant
/// `s * tenants / num_sms`, and sees its program with a tenant-local SM
/// index.
pub struct MultiTenantProgram {
    programs: Vec<Box<dyn WarpProgram>>,
    num_sms: usize,
}

impl std::fmt::Debug for MultiTenantProgram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MultiTenantProgram")
            .field("tenants", &self.programs.len())
            .field("num_sms", &self.num_sms)
            .finish()
    }
}

impl MultiTenantProgram {
    /// Composes per-tenant programs over `num_sms` SMs.
    ///
    /// Each inner program must have been built for its partition size
    /// ([`partition_sms`](Self::partition_sms) tells how many SMs tenant
    /// `t` receives).
    ///
    /// # Panics
    ///
    /// Panics if there are more tenants than SMs or no tenants.
    pub fn new(programs: Vec<Box<dyn WarpProgram>>, num_sms: usize) -> Self {
        assert!(!programs.is_empty() && programs.len() <= num_sms);
        Self { programs, num_sms }
    }

    fn tenant_of_sm(&self, sm: usize) -> usize {
        sm * self.programs.len() / self.num_sms
    }

    fn first_sm_of(&self, tenant: usize) -> usize {
        // Smallest sm with tenant_of_sm(sm) == tenant.
        tenant * self.num_sms / self.programs.len()
            + usize::from(!(tenant * self.num_sms).is_multiple_of(self.programs.len()))
    }

    /// SMs assigned to tenant `t` under the engine's partitioning.
    pub fn partition_sms(num_sms: usize, tenants: usize, tenant: usize) -> usize {
        (0..num_sms).filter(|&s| s * tenants / num_sms == tenant).count()
    }
}

impl WarpProgram for MultiTenantProgram {
    fn next_op(&mut self, sm: usize, warp: usize) -> Option<WarpOp> {
        let tenant = self.tenant_of_sm(sm);
        let local_sm = sm - self.first_sm_of(tenant);
        self.programs[tenant].next_op(local_sm, warp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Workload;

    #[test]
    fn partitions_cover_all_sms() {
        for (sms, tenants) in [(16, 2), (16, 3), (46, 2), (7, 3)] {
            let total: usize =
                (0..tenants).map(|t| MultiTenantProgram::partition_sms(sms, tenants, t)).sum();
            assert_eq!(total, sms, "{sms} SMs / {tenants} tenants");
        }
    }

    #[test]
    fn routes_sms_to_the_right_tenant_program() {
        let w = Workload::by_abbr("GEMM").unwrap();
        let sms = 8;
        let tenants = 2;
        let per = MultiTenantProgram::partition_sms(sms, tenants, 0);
        let programs: Vec<Box<dyn avatar_sim::sm::WarpProgram>> = (0..tenants)
            .map(|_| Box::new(w.program(per, 4, 0.05)) as Box<dyn avatar_sim::sm::WarpProgram>)
            .collect();
        let mut multi = MultiTenantProgram::new(programs, sms);
        // Both partitions produce work; tenant-local SM 0 of each tenant
        // yields the identical (deterministic) stream.
        let a = multi.next_op(0, 0);
        let b = multi.next_op(4, 0); // first SM of tenant 1
        assert!(a.is_some());
        assert_eq!(a, b, "same workload, same local index, same stream");
    }

    #[test]
    fn exhausts_each_partition_independently() {
        let w = Workload::by_abbr("XSB").unwrap();
        let programs: Vec<Box<dyn avatar_sim::sm::WarpProgram>> = (0..2)
            .map(|_| Box::new(w.program(2, 2, 0.05)) as Box<dyn avatar_sim::sm::WarpProgram>)
            .collect();
        let mut multi = MultiTenantProgram::new(programs, 4);
        let mut count = 0;
        for sm in 0..4 {
            for warp in 0..2 {
                while multi.next_op(sm, warp).is_some() {
                    count += 1;
                }
            }
        }
        assert!(count > 0);
        assert_eq!(count % 2, 0, "two identical partitions issue equal work");
    }
}
