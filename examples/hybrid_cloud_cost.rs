//! Drive the hybrid-cloud substrate directly: tiers, hiring, reshaping
//! and the two billing modes.
//!
//! Shows the §IV-A setup in isolation — the 624-core usage-billed private
//! tier, a pay-as-you-go public tier — plus the 30 s boot/reshape penalty
//! and how costs accrue through a small hand-driven scenario.
//!
//! Run with: `cargo run --release --example hybrid_cloud_cost`

use scan::cloud::instance::InstanceSize;
use scan::cloud::provider::CloudProvider;
use scan::cloud::tier::{TierCatalog, TierId};
use scan::sim::SimTime;

fn main() {
    let mut cloud = CloudProvider::new(TierCatalog::paper_hybrid(50.0));
    let t = SimTime::new;

    println!("hybrid cloud: private 624 cores @5 CU (usage-billed),");
    println!("              public unbounded @50 CU (billed while hired)\n");

    // Hire a 16-core worker; it boots for 0.5 TU (the 30 s penalty).
    let (w1, ready1) = cloud.hire(InstanceSize::new(16).unwrap(), t(0.0)).expect("capacity");
    println!("t=0.0  hired {:?} (16-core, private), ready at {}", w1, ready1);
    cloud.vm_mut(w1).unwrap().finish_boot(ready1);

    // Run a GATK stage task for 3 TU.
    cloud.vm_mut(w1).unwrap().start_task(t(1.0));
    cloud.vm_mut(w1).unwrap().finish_task(t(4.0));
    println!(
        "t=4.0  task done; private cost so far: {:.0} CU (16 cores x 5 CU x 3 TU)",
        cloud.total_cost(t(4.0))
    );

    // Reshape it to 4 cores for the next pipeline stage: boot again.
    let ready2 = cloud.reshape(w1, InstanceSize::new(4).unwrap(), t(4.0)).expect("capacity");
    println!("t=4.0  reshaped to 4-core; ready again at {ready2} (penalty paid)");
    cloud.vm_mut(w1).unwrap().finish_boot(ready2);

    // Saturate the private tier, forcing the next hire onto public cores.
    let mut hired = 1;
    while cloud.free_cores(TierId::PRIVATE) >= 16 {
        let (id, ready) = cloud
            .hire_on(TierId::PRIVATE, InstanceSize::new(16).unwrap(), t(5.0))
            .expect("private capacity");
        cloud.vm_mut(id).unwrap().finish_boot(ready);
        hired += 1;
    }
    println!(
        "\nt=5.0  private tier saturated with {hired} workers ({} cores in use)",
        cloud.cores_in_use(TierId::PRIVATE)
    );

    let (pub_vm, _) =
        cloud.hire(InstanceSize::new(8).unwrap(), t(5.0)).expect("public is unbounded");
    println!(
        "t=5.0  next hire lands on the public tier: {:?} on {:?}",
        pub_vm,
        cloud.vm(pub_vm).unwrap().tier
    );

    // Watch the bills diverge: idle private cores are free (depreciation
    // model), the idle public worker bills every TU.
    let c5 = cloud.total_cost(t(5.5));
    let c7 = cloud.total_cost(t(7.5));
    println!("\ncost at t=5.5: {c5:.0} CU; at t=7.5: {c7:.0} CU");
    println!(
        "  -> +{:.0} CU in 2 TU, all from the idle 8-core public worker (8 x 50 x 2)",
        c7 - c5
    );

    cloud.release(pub_vm, t(7.5));
    println!(
        "t=7.5  released the public worker; burn rate now {:.0} CU/TU (idle private is free)",
        {
            // Burn rate counts hired capacity; with busy-billing the *accrual*
            // is zero while idle, which total_cost reflects:
            let c8 = cloud.total_cost(t(8.5));
            c8 - cloud.total_cost(t(7.5))
        }
    );

    println!(
        "\ntotals: {:.0} CU spent, {:.0} core-TU hired, {} workers ever hired",
        cloud.total_cost(t(8.5)),
        cloud.total_core_tu(t(8.5)),
        cloud.hired_total()
    );
}
