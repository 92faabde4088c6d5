#include "dramcache/organization.hpp"

#include "dramcache/enums.hpp"
#include "dramcache/org_colassoc.hpp"
#include "dramcache/org_setassoc.hpp"

namespace accord::dramcache
{

core::NamedRegistry<OrgFactory> &
organizationRegistry()
{
    static core::NamedRegistry<OrgFactory> registry;
    return registry;
}

void
registerBuiltinOrganizations()
{
    // Explicit and idempotent rather than namespace-scope static
    // registration: the controller calls this before resolving its
    // factory, so builtins exist regardless of link order.  The
    // function-local static initializer runs exactly once, and
    // concurrent callers (sweep workers building their first
    // controllers) wait until it has finished.
    static const bool registered = [] {
        organizationRegistry().add(
            toToken(Organization::SetAssoc),
            {&SetAssocOrg::geometryFor, [](const OrgContext &ctx) {
                 return std::unique_ptr<OrgStrategy>(
                     std::make_unique<SetAssocOrg>(ctx));
             }});
        organizationRegistry().add(
            toToken(Organization::ColumnAssoc),
            {&ColAssocOrg::geometryFor, [](const OrgContext &ctx) {
                 return std::unique_ptr<OrgStrategy>(
                     std::make_unique<ColAssocOrg>(ctx));
             }});
        return true;
    }();
    (void)registered;
}

} // namespace accord::dramcache
