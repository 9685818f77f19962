//! The second file server of Fig. 5: FAT16 over its own disk + driver,
//! with the same transparent recovery contract as MFS.

use std::cell::RefCell;
use std::rc::Rc;

use phoenix::apps::{Dd, DdStatus};
use phoenix::os::{names, Os};
use phoenix_hw::disk::DiskModel;
use phoenix_servers::fsfat::{expected_sha1_fat, mkfs_fat, FatContent, FatFileSpec};
use phoenix_simcore::time::SimDuration;

fn ms(n: u64) -> SimDuration {
    SimDuration::from_millis(n)
}

fn fat_files(size: u32) -> Vec<FatFileSpec> {
    vec![
        FatFileSpec {
            name: "hello.txt".to_string(),
            content: FatContent::Bytes(b"hello from fat".to_vec()),
        },
        FatFileSpec {
            name: "big.bin".to_string(),
            content: FatContent::Synthetic { size },
        },
    ]
}

fn expected_big_sha1(sectors: u64, seed: u64, size: u32) -> String {
    let mut scratch = DiskModel::new(sectors, seed);
    let (bpb, dirents) = mkfs_fat(&mut scratch, &fat_files(size));
    expected_sha1_fat(seed, &bpb, &dirents[1])
}

#[test]
fn fat_mount_serves_files() {
    let (sectors, seed, size) = (16_384u64, 71u64, 2_000_000u32);
    let mut os = Os::builder()
        .seed(70)
        .with_fat_disk(sectors, seed, fat_files(size))
        .boot();
    assert!(os.is_up(names::FAT));
    assert!(os.is_up(names::BLK_SATA2));
    let vfs = os.endpoint(names::VFS).unwrap();
    let status = Rc::new(RefCell::new(DdStatus::default()));
    os.spawn_app(
        "dd",
        Box::new(Dd::new(vfs, "/fat/big.bin", 64 * 1024, status.clone())),
    );
    let mut guard = 0;
    while !status.borrow().done && guard < 200 {
        os.run_for(ms(100));
        guard += 1;
    }
    let st = status.borrow();
    assert!(st.done, "fat read completes; bytes={}", st.bytes);
    assert_eq!(st.errors, 0);
    assert_eq!(
        st.sha1.as_deref(),
        Some(expected_big_sha1(sectors, seed, size).as_str())
    );
}

#[test]
fn fat_driver_recovery_is_transparent_like_mfs() {
    // Fig. 5's claim, for the second file server: kill the FAT volume's
    // driver mid-read; the FAT server parks + reissues; data is intact.
    let (sectors, seed, size) = (32_768u64, 72u64, 6_000_000u32);
    let mut os = Os::builder()
        .seed(71)
        .with_fat_disk(sectors, seed, fat_files(size))
        .boot();
    let vfs = os.endpoint(names::VFS).unwrap();
    let status = Rc::new(RefCell::new(DdStatus::default()));
    os.spawn_app(
        "dd",
        Box::new(Dd::new(vfs, "/fat/big.bin", 64 * 1024, status.clone())),
    );
    os.run_for(ms(60));
    assert!(os.kill_by_user(names::BLK_SATA2));
    let mut guard = 0;
    while !status.borrow().done && guard < 400 {
        os.run_for(ms(100));
        guard += 1;
    }
    let st = status.borrow();
    assert!(
        st.done,
        "read completes despite the kill; bytes={}",
        st.bytes
    );
    assert_eq!(st.errors, 0, "transparent to the application");
    assert_eq!(
        st.sha1.as_deref(),
        Some(expected_big_sha1(sectors, seed, size).as_str()),
        "data intact"
    );
    assert!(
        os.metrics().counter("fat.reissues") >= 1,
        "pending I/O reissued"
    );
    assert_eq!(os.metrics().counter("rs.recoveries"), 1);
}

#[test]
fn both_file_servers_ride_out_simultaneous_driver_kills() {
    // MFS and FAT each lose their own driver at the same instant; both
    // recover independently (Fig. 5, both arrows at once).
    let mfs_size = 2_000_000u64;
    let mfs_sectors = mfs_size / 512 + 1024;
    let (fat_sectors, fat_seed, fat_size) = (16_384u64, 73u64, 2_000_000u32);
    let mut os = Os::builder()
        .seed(72)
        .with_disk(mfs_sectors, 55, phoenix::experiments::fig8_files(mfs_size))
        .with_fat_disk(fat_sectors, fat_seed, fat_files(fat_size))
        .boot();
    let vfs = os.endpoint(names::VFS).unwrap();
    let st_mfs = Rc::new(RefCell::new(DdStatus::default()));
    let st_fat = Rc::new(RefCell::new(DdStatus::default()));
    os.spawn_app(
        "dd-mfs",
        Box::new(Dd::new(vfs, "bigfile", 64 * 1024, st_mfs.clone())),
    );
    os.spawn_app(
        "dd-fat",
        Box::new(Dd::new(vfs, "/fat/big.bin", 64 * 1024, st_fat.clone())),
    );
    os.run_for(ms(60));
    assert!(os.kill_by_user(names::BLK_SATA));
    assert!(os.kill_by_user(names::BLK_SATA2));
    let mut guard = 0;
    while (!st_mfs.borrow().done || !st_fat.borrow().done) && guard < 400 {
        os.run_for(ms(100));
        guard += 1;
    }
    assert!(st_mfs.borrow().done && st_fat.borrow().done);
    assert_eq!(st_mfs.borrow().errors + st_fat.borrow().errors, 0);
    assert_eq!(
        st_mfs.borrow().sha1.as_deref(),
        Some(phoenix::experiments::fig8_expected_sha1(mfs_sectors, 55, mfs_size).as_str())
    );
    assert_eq!(
        st_fat.borrow().sha1.as_deref(),
        Some(expected_big_sha1(fat_sectors, fat_seed, fat_size).as_str())
    );
    assert_eq!(os.metrics().counter("rs.recoveries"), 2);
}

#[test]
fn fat_small_file_and_missing_file() {
    use phoenix_drivers::proto::status;
    use phoenix_kernel::process::{ProcEvent, Process};
    use phoenix_kernel::system::Ctx;
    use phoenix_kernel::types::{Endpoint, Message};
    use phoenix_servers::proto::fs;

    let mut os = Os::builder()
        .seed(73)
        .with_fat_disk(8192, 74, fat_files(10_000))
        .boot();
    let vfs = os.endpoint(names::VFS).unwrap();

    type Results = Rc<RefCell<Vec<(u64, Vec<u8>)>>>;
    struct Small {
        vfs: Endpoint,
        results: Results,
        step: u8,
    }
    impl Process for Small {
        fn on_event(&mut self, ctx: &mut Ctx<'_>, event: ProcEvent) {
            match event {
                ProcEvent::Start => {
                    let _ = ctx.sendrec(
                        self.vfs,
                        Message::new(fs::OPEN).with_data(b"/fat/hello.txt".to_vec()),
                    );
                }
                ProcEvent::Reply {
                    result: Ok(reply), ..
                } => match self.step {
                    0 => {
                        assert_eq!(reply.param(0), status::OK);
                        assert_eq!(reply.param(2), 14, "size of hello.txt");
                        self.step = 1;
                        let _ = ctx.sendrec(
                            self.vfs,
                            Message::new(fs::READ)
                                .with_param(0, reply.param(1))
                                .with_param(1, 0)
                                .with_param(2, 14)
                                .with_param(7, 1),
                        );
                    }
                    1 => {
                        self.results
                            .borrow_mut()
                            .push((reply.param(0), reply.data.clone()));
                        self.step = 2;
                        let _ = ctx.sendrec(
                            self.vfs,
                            Message::new(fs::OPEN).with_data(b"/fat/nope.bin".to_vec()),
                        );
                    }
                    2 => {
                        self.results.borrow_mut().push((reply.param(0), Vec::new()));
                        self.step = 3;
                        // FAT names are case-insensitive.
                        let _ = ctx.sendrec(
                            self.vfs,
                            Message::new(fs::OPEN).with_data(b"/fat/HELLO.TXT".to_vec()),
                        );
                    }
                    3 => {
                        assert_eq!(reply.param(0), status::OK, "upper-case name resolves");
                        assert_eq!(reply.param(2), 14, "same file");
                        self.step = 4;
                        // The FAT volume is read-only.
                        let _ = ctx.sendrec(
                            self.vfs,
                            Message::new(fs::WRITE)
                                .with_param(0, reply.param(1))
                                .with_param(1, 0)
                                .with_param(7, 1)
                                .with_data(vec![b'x'; 512]),
                        );
                    }
                    4 => {
                        self.results.borrow_mut().push((reply.param(0), Vec::new()));
                        self.step = 5;
                    }
                    _ => {}
                },
                _ => {}
            }
        }
    }
    let results = Rc::new(RefCell::new(Vec::new()));
    os.spawn_app(
        "small",
        Box::new(Small {
            vfs,
            results: results.clone(),
            step: 0,
        }),
    );
    os.run_for(SimDuration::from_secs(2));
    let r = results.borrow();
    assert_eq!(r.len(), 3);
    assert_eq!(r[0].0, status::OK);
    assert_eq!(r[0].1, b"hello from fat");
    assert_eq!(r[1].0, status::ENODEV, "missing file");
    assert_eq!(r[2].0, status::EINVAL, "write to a read-only volume");
}
