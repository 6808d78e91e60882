// secguru_check — validate a connectivity policy against a contract file.
//
// The command-line face of SecGuru (Figure 10): reads an ACL in the Cisco
// IOS-style syntax of Figure 8 (or an NSG in the Figure 9 tabular format),
// reads a contract suite, and reports every failed invariant with its
// witness packet and the violating rule. Exit status 0 iff all contracts
// hold — ready to gate a deployment pipeline (§3.3/§3.5).
#include <iostream>
#include <stdexcept>
#include <string>

#include "cli.hpp"
#include "secguru/acl_parser.hpp"
#include "secguru/contracts_io.hpp"
#include "secguru/device_config.hpp"
#include "secguru/engine.hpp"
#include "secguru/fast_engine.hpp"
#include "secguru/nsg.hpp"

int main(int argc, char** argv) {
  using namespace dcv;
  using namespace dcv::secguru;

  std::string policy_path;
  std::string config_path;
  std::string acl_name;
  std::string contracts_path;
  bool as_nsg = false;
  bool deny_overrides = false;
  bool report_shadowed = false;
  bool smt_only = false;
  bool quiet = false;
  cli::parse(
      "secguru_check",
      {
          cli::text("--contracts", "FILE", contracts_path,
                    "contract suite to check the policy against")
              .require(),
          cli::text("--policy", "FILE", policy_path,
                    "the policy to check: a Cisco-style ACL (Figure 8)"),
          cli::text("--config", "FILE", config_path,
                    "instead of a policy file, read a full device "
                    "configuration and analyze one of its ACLs (the SS3.2 "
                    "interface)"),
          cli::text("--acl", "NAME", acl_name,
                    "the ACL to analyze in that configuration"),
          cli::toggle("--nsg", as_nsg,
                      "parse the policy as an NSG table (Figure 9 format) "
                      "instead of a Cisco-style ACL"),
          cli::toggle("--deny-overrides", deny_overrides,
                      "use deny-overrides semantics (host firewalls)"),
          cli::toggle("--shadowed", report_shadowed,
                      "also report redundant rules"),
          cli::toggle("--smt-only", smt_only,
                      "skip the interval fast path, use Z3 for every "
                      "contract (the pre-fast-path behavior)"),
          cli::toggle("--quiet", quiet, "print only the summary line"),
      },
      argc, argv);
  if (policy_path.empty() == config_path.empty() ||
      (!config_path.empty() && acl_name.empty())) {
    cli::usage_error(
        "needs exactly one policy: a policy file, or a device "
        "configuration with the name of its ACL (see --help)");
  }

  return cli::run([&] {
    Policy policy;
    if (!config_path.empty()) {
      // The production interface (§3.2): a device configuration plus the
      // name of the ACL to analyze.
      const DeviceConfig config =
          parse_device_config(cli::read_file(config_path));
      const Policy* named = config.find_acl(acl_name);
      if (named == nullptr) {
        throw std::runtime_error("no ACL '" + acl_name + "' in " +
                                 config_path);
      }
      policy = *named;
    } else {
      const std::string text = cli::read_file(policy_path);
      policy = as_nsg ? parse_nsg(text, policy_path).to_policy()
                      : parse_acl(text, policy_path);
    }
    if (deny_overrides) policy.semantics = PolicySemantics::kDenyOverrides;
    const ContractSuite suite =
        parse_contracts(cli::read_file(contracts_path), contracts_path);

    Engine engine;
    FastEngine fast_engine;
    const PolicyReport report = smt_only
                                    ? engine.check_suite(policy, suite)
                                    : fast_engine.check_suite(policy, suite);

    if (!quiet) {
      for (const ContractCheckResult& failure : report.failures) {
        std::cout << write_failure(failure, policy) << "\n";
      }
    }

    if (report_shadowed) {
      for (const std::size_t index : engine.shadowed_rules(policy)) {
        std::cout << "SHADOWED rule " << policy.rules[index].line << ": "
                  << policy.rules[index].to_string() << "\n";
      }
    }

    std::cout << "secguru_check: " << policy.rules.size() << " rules ("
              << to_string(policy.semantics) << "), "
              << report.contracts_checked << " contracts, "
              << report.failures.size() << " failed\n";
    return report.ok() ? 0 : 3;
  });
}
