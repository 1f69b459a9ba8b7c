// IDE boot walkthrough: boots the Devil re-engineered IDE driver (the
// Table 4 subject) against the simulated PIIX4 disk and shows what the
// driver observed — capacity, partition table and filesystem — plus the
// first I/O bus transactions.
//
// Usage: ide_boot [--production] [--c-driver] [--walker]
#include <cstdio>
#include <cstring>
#include <memory>

#include "corpus/drivers.h"
#include "corpus/specs.h"
#include "devil/compiler.h"
#include "hw/flight_recorder.h"
#include "hw/ide_disk.h"
#include "hw/io_bus.h"
#include "minic/program.h"

int main(int argc, char** argv) {
  bool production = false, use_c = false;
  auto engine = minic::ExecEngine::kBytecodeVm;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--production") == 0) production = true;
    if (std::strcmp(argv[i], "--c-driver") == 0) use_c = true;
    if (std::strcmp(argv[i], "--walker") == 0) {
      engine = minic::ExecEngine::kTreeWalker;
    }
  }

  std::string unit, name;
  if (use_c) {
    name = "ide_c.c";
    unit = corpus::c_ide_driver();
    std::printf("driver: original C (raw inb/outb)\n");
  } else {
    auto mode = production ? devil::CodegenMode::kProduction
                           : devil::CodegenMode::kDebug;
    auto spec = devil::compile_spec("ide.dil", corpus::ide_spec(), mode);
    if (!spec.ok()) {
      std::fprintf(stderr, "%s", spec.diags.render().c_str());
      return 1;
    }
    name = "ide.dil";
    unit = spec.stubs + "\n" + corpus::cdevil_ide_driver();
    std::printf("driver: Devil (%s stubs)\n",
                production ? "production" : "debug");
  }

  hw::IoBus bus;
  auto disk = std::make_shared<hw::IdeDisk>();
  // Keeps the last 4096 transactions — a whole clean boot.
  auto recorder =
      std::make_shared<hw::FlightRecorder>(disk, 0x1f0, &bus, 4096);
  bus.map(0x1f0, 8, recorder);

  auto out =
      minic::compile_and_run(name, unit, "ide_boot", bus, 3'000'000, engine);
  if (out.fault != minic::FaultKind::kNone) {
    std::printf("boot FAILED: %s\n", out.fault_message.c_str());
    return 1;
  }

  int64_t fp = out.return_value;
  std::printf("boot OK, fingerprint %lld\n", static_cast<long long>(fp));
  std::printf("  partition start : LBA %lld\n",
              static_cast<long long>(fp / 65536));
  std::printf("  sectors read    : %u\n", disk->sectors_read());
  std::printf("  disk damaged    : %s\n", disk->damaged() ? "YES" : "no");
  std::printf("  interp steps    : %llu\n",
              static_cast<unsigned long long>(out.steps_used));

  std::printf("\nfirst 12 bus transactions:\n");
  size_t shown = 0;
  for (const auto& a : recorder->tail()) {
    if (shown++ >= 12) break;
    std::printf("  %s port 0x%03x %s 0x%0*x\n", a.is_write ? "out" : "in ",
                a.port, a.is_write ? "<-" : "->", a.width / 4, a.value);
  }
  return 0;
}
